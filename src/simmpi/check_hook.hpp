// CheckHook: the runtime-verification attachment point of simmpi.
//
// Like FaultHook (fault injection) and obs::Telemetry (observability),
// the checker is an optional pointer in RuntimeOptions: nullptr — the
// default — disables every verification site at the cost of one untaken
// branch.  The concrete implementation lives in src/check; simmpi only
// defines the interface so the dependency keeps pointing outward
// (check -> simmpi, never the reverse).
//
// The runtime reports, per rank thread:
//   - every collective entry (with an operation fingerprint + call site)
//     and exit — the checker cross-checks fingerprints across ranks and
//     may throw on the first divergent rank;
//   - every point-to-point send/recv (for finalize-time leak detection);
//   - every window create / put / fence / free (for access-epoch
//     discipline and overlapping-put detection).
// run_begin/run_end bracket one Runtime::run(); run_end returns the
// error the run should fail with, if any (e.g. a stuck-rank report or a
// message leak), so the checker can fail runs whose rank threads only
// ever saw secondary AbortedErrors.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <source_location>
#include <vector>

namespace collrep::simmpi {

// Every operation simmpi executes collectively, generated from the shared
// registry (obs/collectives.def).  The typed collectives come first and
// mirror obs::CollectiveKind (same declaration order) so the two enums
// convert by index; the remainder are the comm-layer collectives that obs
// counts separately (barriers, window epochs).
enum class CollOp : std::uint8_t {
#define COLLREP_COLLECTIVE_OBS(Name, str) k##Name,
#define COLLREP_COLLECTIVE_COMM(Name, str) k##Name,
#include "obs/collectives.def"
};

inline constexpr std::size_t kCollOpCount = 0
#define COLLREP_COLLECTIVE_OBS(Name, str) +1
#define COLLREP_COLLECTIVE_COMM(Name, str) +1
#include "obs/collectives.def"
    ;

[[nodiscard]] constexpr const char* to_string(CollOp op) noexcept {
  switch (op) {
#define COLLREP_COLLECTIVE_OBS(Name, str) \
  case CollOp::k##Name:                   \
    return str;
#define COLLREP_COLLECTIVE_COMM(Name, str) \
  case CollOp::k##Name:                    \
    return str;
#include "obs/collectives.def"
  }
  return "unknown";
}

// Program location of a verification site.  The pointers come from
// std::source_location and have static storage duration, so a CallSite is
// trivially copyable and never dangles.
struct CallSite {
  const char* file = "";
  std::uint_least32_t line = 0;
  const char* function = "";

  [[nodiscard]] static CallSite from(const std::source_location& loc) noexcept {
    return CallSite{loc.file_name(), loc.line(), loc.function_name()};
  }
};

// Fingerprint of one collective invocation as seen by one rank.  Two
// ranks executing the same SPMD program present identical fingerprints
// for the same per-rank collective sequence number; any field that
// differs is a semantic bug the messaging layer would turn into a hang
// or silent corruption.
struct CollFingerprint {
  CollOp op = CollOp::kBarrier;
  // Root rank of rooted collectives; -1 for rootless ones (barrier,
  // allreduce, allgather).  Window collectives carry the window id here
  // so epochs on different windows cannot be confused.
  int root = -1;
  // typeid(T).hash_code() of the payload type; 0 for untyped sites.
  std::uint64_t type_hash = 0;
  // Fence flags (kFenceNoSucceed) for kWinFence; 0 elsewhere.  Ranks
  // disagreeing on whether a fence closes the access epoch is a bug.
  unsigned flags = 0;

  [[nodiscard]] bool operator==(const CollFingerprint&) const = default;
};

// Fence assertion flags (the MPI_Win_fence assert analogue).
// kFenceNoSucceed declares that no RMA follows this fence on this
// window: the access epoch closes, and a later put (before the next
// plain fence reopens it) is an epoch violation.
inline constexpr unsigned kFenceNoSucceed = 1u;

class CheckHook {
 public:
  virtual ~CheckHook() = default;

  // Host thread, before rank threads start.  `abort_run` force-aborts
  // the in-flight run (unblocking every blocked rank); it must not be
  // invoked after run_end returns.
  virtual void run_begin(int nranks, std::function<void()> abort_run) = 0;

  // Host thread, after every rank thread joined.  `aborted` tells the
  // checker the run died early (leftover messages are then expected,
  // not leaks).  A non-null return is the exception the run fails with
  // when no rank recorded a primary error of its own.
  virtual std::exception_ptr run_end(bool aborted) = 0;

  // Collective entry on the calling rank's thread.  May throw to kill
  // the rank (the run then aborts and Runtime::run rethrows).
  virtual void on_collective(int rank, const CollFingerprint& fp,
                             CallSite site) = 0;
  // Matching exit; called from scope destructors, must not throw.
  virtual void on_collective_done(int rank) noexcept = 0;

  // Point-to-point accounting.  For mailbox messages on_send runs before
  // the message is enqueued and on_recv after it is dequeued.  The
  // allgather's modeled ring messages are booked by the sending and the
  // receiving rank independently, so their receive may be observed first.
  virtual void on_send(int rank, int dst, int tag, std::size_t bytes) = 0;
  virtual void on_recv(int rank, int src, int tag, std::size_t bytes) = 0;

  // One-sided windows.  on_put may throw (epoch violation / overlap in
  // abort mode); the others are bookkeeping.
  virtual void on_win_create(int rank, int win, std::size_t bytes) = 0;
  virtual void on_put(int rank, int win, int target, std::size_t offset,
                      std::size_t bytes, CallSite site) = 0;
  virtual void on_fence(int rank, int win, unsigned flags) = 0;
  virtual void on_win_free(int rank, int win) = 0;

  // -- failure containment (RuntimeOptions::contain_failures) ---------------
  // `rank` (world numbering) died of an injected fail-stop failure; called
  // once, on the dying rank's own thread, before its death is published to
  // the runtime.  The rank makes no further progress: the checker must
  // deregister it from the heartbeat/stuck accounting so survivors are not
  // reported as waiting on a corpse.
  virtual void on_rank_dead(int rank) { (void)rank; }
  // The failure-agreement step of Comm::shrink() completed: `alive_world`
  // holds the surviving world ranks (ascending).  Called exactly once per
  // shrink, on the last parking rank's thread while every other survivor is
  // still parked in the rendezvous — the checker may rebuild cross-rank
  // state (collective sequence alignment, in-flight channels) exclusively.
  virtual void on_shrink(const std::vector<int>& alive_world) {
    (void)alive_world;
  }
};

}  // namespace collrep::simmpi
