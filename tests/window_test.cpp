// One-sided window semantics: create/put/fence visibility, bounds checks,
// epoch cost accounting, and multi-window coexistence.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "fault/schedule.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/runtime.hpp"

namespace {

using namespace collrep;

TEST(Window, PutVisibleAfterFence) {
  simmpi::Runtime rt(4);
  rt.run([&](simmpi::Comm& comm) {
    auto win = comm.win_create(16);
    const std::vector<std::uint8_t> mine(4,
                                         static_cast<std::uint8_t>(comm.rank()));
    // Every rank writes its id into every rank's window at offset 4*rank.
    for (int t = 0; t < comm.size(); ++t) {
      win.put(t, static_cast<std::size_t>(comm.rank()) * 4, mine);
    }
    win.fence();
    const auto local = win.local();
    for (int r = 0; r < comm.size(); ++r) {
      for (int b = 0; b < 4; ++b) {
        EXPECT_EQ(local[static_cast<std::size_t>(r * 4 + b)], r);
      }
    }
    win.free();
  });
}

TEST(Window, RegionsAreZeroInitialized) {
  simmpi::Runtime rt(2);
  rt.run([&](simmpi::Comm& comm) {
    auto win = comm.win_create(64);
    for (const auto byte : win.local()) EXPECT_EQ(byte, 0);
    win.free();
  });
}

TEST(Window, DifferentSizesPerRank) {
  simmpi::Runtime rt(3);
  rt.run([&](simmpi::Comm& comm) {
    auto win = comm.win_create(static_cast<std::size_t>(comm.rank()) * 8);
    EXPECT_EQ(win.local().size(), static_cast<std::size_t>(comm.rank()) * 8);
    if (comm.rank() == 0) {
      const std::vector<std::uint8_t> data(8, 0xEE);
      win.put(2, 8, data);
    }
    win.fence();
    if (comm.rank() == 2) {
      EXPECT_EQ(win.local()[8], 0xEE);
      EXPECT_EQ(win.local()[15], 0xEE);
      EXPECT_EQ(win.local()[0], 0);
    }
    win.free();
  });
}

TEST(Window, OutOfBoundsPutThrows) {
  simmpi::Runtime rt(2);
  EXPECT_THROW(rt.run([&](simmpi::Comm& comm) {
    auto win = comm.win_create(8);
    const std::vector<std::uint8_t> data(8, 1);
    if (comm.rank() == 0) win.put(1, 4, data);  // 4 + 8 > 8
    win.fence();
    win.free();
  }),
               std::out_of_range);
}

TEST(Window, FenceAdvancesClockByEpochBytes) {
  simmpi::RuntimeOptions opts;
  opts.cluster.ranks_per_node = 1;  // every transfer is inter-node
  simmpi::Runtime rt(2, opts);
  const double bw = opts.cluster.net_bandwidth_bps;
  rt.run([&](simmpi::Comm& comm) {
    auto win = comm.win_create(1 << 20);
    const double before = comm.clock().now();
    if (comm.rank() == 0) {
      const std::vector<std::uint8_t> data(1 << 20, 7);
      win.put(1, 0, data);
    }
    win.fence();
    const double elapsed = comm.clock().now() - before;
    // The epoch must cost at least bytes/bandwidth on both ranks (clocks
    // are aligned by the fence).
    EXPECT_GE(elapsed, static_cast<double>(1 << 20) / bw * 0.99);
    win.free();
  });
}

TEST(Window, ModeledBytesOverrideDrivesCost) {
  simmpi::RuntimeOptions opts;
  opts.cluster.ranks_per_node = 1;
  simmpi::Runtime rt(2, opts);
  std::vector<double> elapsed(2, 0.0);
  rt.run([&](simmpi::Comm& comm) {
    auto win = comm.win_create(64);
    const double before = comm.clock().now();
    if (comm.rank() == 0) {
      const std::vector<std::uint8_t> tiny(16, 1);
      // 16 real bytes standing in for 4 MiB on the wire.
      win.put(1, 0, tiny, 4ull << 20);
      EXPECT_EQ(comm.epoch_bytes_put(), 4ull << 20);
    }
    win.fence();
    elapsed[static_cast<std::size_t>(comm.rank())] =
        comm.clock().now() - before;
    EXPECT_EQ(comm.epoch_bytes_put(), 0u);  // reset by the fence
    win.free();
  });
  EXPECT_GE(elapsed[1],
            static_cast<double>(4ull << 20) / opts.cluster.net_bandwidth_bps *
                0.99);
}

TEST(Window, TwoWindowsCoexist) {
  simmpi::Runtime rt(2);
  rt.run([&](simmpi::Comm& comm) {
    auto win_a = comm.win_create(8);
    auto win_b = comm.win_create(8);
    const std::vector<std::uint8_t> a(8, 0xAA);
    const std::vector<std::uint8_t> b(8, 0xBB);
    if (comm.rank() == 0) {
      win_a.put(1, 0, a);
      win_b.put(1, 0, b);
    }
    win_a.fence();
    win_b.fence();
    if (comm.rank() == 1) {
      EXPECT_EQ(win_a.local()[0], 0xAA);
      EXPECT_EQ(win_b.local()[0], 0xBB);
    }
    win_a.free();
    win_b.free();
  });
}

TEST(Window, RecreateAfterFree) {
  simmpi::Runtime rt(2);
  rt.run([&](simmpi::Comm& comm) {
    for (int round = 0; round < 3; ++round) {
      auto win = comm.win_create(4);
      const std::vector<std::uint8_t> data(
          4, static_cast<std::uint8_t>(round + 1));
      win.put((comm.rank() + 1) % 2, 0, data);
      win.fence();
      EXPECT_EQ(win.local()[0], round + 1);
      win.free();
    }
  });
}

TEST(Window, DestructorReleasesCollectively) {
  simmpi::Runtime rt(2);
  rt.run([&](simmpi::Comm& comm) {
    {
      auto win = comm.win_create(4);
      win.fence();
    }  // destructor performs the collective free on both ranks
    auto win2 = comm.win_create(4);
    win2.free();
  });
}

TEST(Window, IntraNodeEpochCheaperThanInterNode) {
  const auto epoch_time = [](int ranks_per_node) {
    simmpi::RuntimeOptions opts;
    opts.cluster.ranks_per_node = ranks_per_node;
    simmpi::Runtime rt(2, opts);
    double result = 0.0;
    rt.run([&](simmpi::Comm& comm) {
      auto win = comm.win_create(1 << 20);
      const double before = comm.clock().now();
      if (comm.rank() == 0) {
        const std::vector<std::uint8_t> data(1 << 20, 3);
        win.put(1, 0, data);
      }
      win.fence();
      if (comm.rank() == 0) result = comm.clock().now() - before;
      win.free();
    });
    return result;
  };
  EXPECT_LT(epoch_time(2) * 5, epoch_time(1));  // same node ≫ cheaper
}

// A rank that issued puts and then dies before the fence still delivers
// them: the survivors' fence completes with the dead rank's bytes in the
// epoch's NIC accounting and in its targets' epoch_bytes_recv(), and with
// its last put's issue time as the epoch start.  The pinned values are
// those of the implementation that tallied every put into the shared
// window state as it was issued.
TEST(Window, DeadRanksPutsCountAtTheSurvivorsFence) {
  constexpr int kRanks = 6;
  constexpr int kVictim = 3;
  fault::FaultSchedule sched;
  fault::FaultEvent ev;
  ev.point = "dump.exchange.mid";
  ev.rank = kVictim;
  ev.action = fault::FaultAction::kKillRank;
  sched.add(ev);
  simmpi::RuntimeOptions opts;
  opts.cluster.ranks_per_node = 2;
  opts.faults = &sched;
  opts.contain_failures = true;
  std::vector<double> release(kRanks, -1.0);
  std::vector<std::uint64_t> recv(kRanks, 0);
  std::vector<int> threw(kRanks, 0);
  simmpi::Runtime rt(kRanks, opts);
  rt.run([&](simmpi::Comm& comm) {
    const int r = comm.rank();
    auto win = comm.win_create(64);
    // The victim issues its puts last in sim time, so its issue clock is
    // what starts the epoch.
    comm.charge(r == kVictim ? 2.0e-3 : 1.0e-4 * r);
    const std::vector<std::uint8_t> rec(8, static_cast<std::uint8_t>(r));
    win.put((r + 1) % kRanks, 0, rec,
            1000 + 100 * static_cast<std::uint64_t>(r));
    win.put((r + 3) % kRanks, 8, rec, 4096);
    comm.fault_point("dump.exchange.mid");
    try {
      win.fence();
    } catch (const simmpi::RankDeadError&) {
      // The epoch completed; the world shrank under it.
      threw[static_cast<std::size_t>(r)] = 1;
      release[static_cast<std::size_t>(r)] = comm.clock().now();
      recv[static_cast<std::size_t>(r)] = comm.epoch_bytes_recv();
      (void)comm.shrink();
    }
  });
  const std::vector<std::uint64_t> kRecv = {5596, 5096, 5196, 0, 5396, 5496};
  for (int r = 0; r < kRanks; ++r) {
    const auto ur = static_cast<std::size_t>(r);
    if (r == kVictim) continue;
    EXPECT_EQ(threw[ur], 1) << "rank " << r;
    EXPECT_EQ(release[ur], 0.0024277960000000003) << "rank " << r;
    EXPECT_EQ(recv[ur], kRecv[ur]) << "rank " << r;
  }
}

}  // namespace
