// Seeded true positives for window epochs under rank-dependent control
// flow: a tracked window's fence is a collective, directly and one call
// level down.  Not compiled; scanned by collcheck_test with
// --include-fixtures.
#include "simmpi/comm.hpp"

namespace fx {

void rank_guarded_fence(collrep::simmpi::Comm& comm) {
  auto win = comm.win_create(64);
  if (comm.rank() == 0) {  // expect CC-SCHED-DIV line 11
    win.fence(0);          // expect CC-COLL-DIV line 12
  }
  win.free();
}

void fence_window(collrep::simmpi::Window& win) {
  win.fence(0);
}

void leader_only_fence(collrep::simmpi::Comm& comm) {
  auto win = comm.win_create(64);
  if (comm.rank() == 0) {  // expect CC-SCHED-DIV line 23
    fence_window(win);     // expect CC-COLL-DIV-CALL line 24
  }
  win.free();
}

}  // namespace fx
