// Collectives vs sequential oracles, across a sweep of rank counts
// (including non-powers of two, which stress the binomial trees); the
// allgather's replayed ring vs the message-based ring it models; and the
// allgather, barrier and fence rendezvous under rank failure.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "check/checker.hpp"
#include "fault/schedule.hpp"
#include "obs/telemetry.hpp"
#include "simmpi/collectives.hpp"
#include "simmpi/runtime.hpp"

namespace {

using namespace collrep;

class CollectiveSweep : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveSweep, BroadcastFromEveryRoot) {
  const int n = GetParam();
  simmpi::Runtime rt(n);
  rt.run([&](simmpi::Comm& comm) {
    for (int root = 0; root < n; ++root) {
      std::string value =
          comm.rank() == root ? "payload-" + std::to_string(root) : "";
      simmpi::bcast(comm, value, root);
      EXPECT_EQ(value, "payload-" + std::to_string(root));
    }
  });
}

TEST_P(CollectiveSweep, ReduceSumAtRoot) {
  const int n = GetParam();
  simmpi::Runtime rt(n);
  rt.run([&](simmpi::Comm& comm) {
    const int got = simmpi::reduce(
        comm, comm.rank() + 1, [](int a, int b) { return a + b; }, 0);
    if (comm.rank() == 0) {
      EXPECT_EQ(got, n * (n + 1) / 2);
    }
  });
}

TEST_P(CollectiveSweep, AllreduceSumEverywhere) {
  const int n = GetParam();
  simmpi::Runtime rt(n);
  rt.run([&](simmpi::Comm& comm) {
    EXPECT_EQ(simmpi::allreduce_sum(comm, comm.rank() + 1),
              n * (n + 1) / 2);
    EXPECT_EQ(simmpi::allreduce_max(comm, comm.rank()), n - 1);
  });
}

TEST_P(CollectiveSweep, AllreduceMergesSetsLikeHmerge) {
  const int n = GetParam();
  simmpi::Runtime rt(n);
  rt.run([&](simmpi::Comm& comm) {
    // Multiset-union operator (associative + commutative, like HMERGE).
    std::map<int, int> mine{{comm.rank() % 3, 1}};
    const auto merged = simmpi::allreduce(
        comm, mine, [](std::map<int, int> a, std::map<int, int> b) {
          for (const auto& [k, v] : b) a[k] += v;
          return a;
        });
    int total = 0;
    for (const auto& [k, v] : merged) total += v;
    EXPECT_EQ(total, n);  // every rank contributed exactly once
  });
}

TEST_P(CollectiveSweep, GatherCollectsByRank) {
  const int n = GetParam();
  simmpi::Runtime rt(n);
  rt.run([&](simmpi::Comm& comm) {
    const auto got = simmpi::gather(comm, comm.rank() * 2, 0);
    if (comm.rank() == 0) {
      ASSERT_EQ(static_cast<int>(got.size()), n);
      for (int r = 0; r < n; ++r) {
        EXPECT_EQ(got[static_cast<std::size_t>(r)], r * 2);
      }
    } else {
      EXPECT_TRUE(got.empty());
    }
  });
}

TEST_P(CollectiveSweep, ScatterDistributesByRank) {
  const int n = GetParam();
  simmpi::Runtime rt(n);
  rt.run([&](simmpi::Comm& comm) {
    std::vector<std::string> values;
    if (comm.rank() == 0) {
      for (int r = 0; r < n; ++r) values.push_back("slot" + std::to_string(r));
    }
    const auto mine = simmpi::scatter(comm, values, 0);
    EXPECT_EQ(mine, "slot" + std::to_string(comm.rank()));
  });
}

TEST_P(CollectiveSweep, AllgatherEveryRankSeesAll) {
  const int n = GetParam();
  simmpi::Runtime rt(n);
  rt.run([&](simmpi::Comm& comm) {
    const auto all = simmpi::allgather(comm, comm.rank() * comm.rank());
    ASSERT_EQ(static_cast<int>(all.size()), n);
    for (int r = 0; r < n; ++r) {
      EXPECT_EQ(all[static_cast<std::size_t>(r)], r * r);
    }
  });
}

TEST_P(CollectiveSweep, AllgatherOfVectors) {
  const int n = GetParam();
  simmpi::Runtime rt(n);
  rt.run([&](simmpi::Comm& comm) {
    const std::vector<std::uint64_t> mine(
        static_cast<std::size_t>(comm.rank() + 1),
        static_cast<std::uint64_t>(comm.rank()));
    const auto all = simmpi::allgather(comm, mine);
    for (int r = 0; r < n; ++r) {
      ASSERT_EQ(all[static_cast<std::size_t>(r)].size(),
                static_cast<std::size_t>(r + 1));
      EXPECT_EQ(all[static_cast<std::size_t>(r)][0],
                static_cast<std::uint64_t>(r));
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CollectiveSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 13, 16, 17));

TEST(Collectives, BcastLargePayload) {
  simmpi::Runtime rt(6);
  rt.run([&](simmpi::Comm& comm) {
    std::vector<std::uint8_t> data;
    if (comm.rank() == 0) data.assign(1 << 18, 0xCD);
    simmpi::bcast(comm, data, 0);
    ASSERT_EQ(data.size(), static_cast<std::size_t>(1 << 18));
    EXPECT_EQ(data[12345], 0xCD);
  });
}

// A payload whose serialization counts its calls.
struct Counted {
  int value = 0;
};
std::atomic<int> g_saves{0};
std::atomic<int> g_loads{0};
void save(simmpi::OArchive& ar, const Counted& c) {
  g_saves.fetch_add(1);
  ar.put(c.value);
}
void load(simmpi::IArchive& ar, Counted& c) {
  g_loads.fetch_add(1);
  ar.get(c.value);
}

// The root serializes once; the other ranks forward the bytes they
// received and deserialize once each.
TEST(Collectives, BcastSerializesOnceAndForwardsBytes) {
  for (const int n : {1, 2, 5, 8, 13}) {
    for (const int root : {0, n - 1}) {
      g_saves.store(0);
      g_loads.store(0);
      std::vector<int> got(static_cast<std::size_t>(n), -1);
      simmpi::Runtime rt(n);
      rt.run([&](simmpi::Comm& comm) {
        Counted c{comm.rank() == root ? 42 : comm.rank()};
        simmpi::bcast(comm, c, root);
        got[static_cast<std::size_t>(comm.rank())] = c.value;
      });
      EXPECT_EQ(g_saves.load(), n > 1 ? 1 : 0) << "n " << n << " root " << root;
      EXPECT_EQ(g_loads.load(), n - 1) << "n " << n << " root " << root;
      EXPECT_EQ(got, std::vector<int>(static_cast<std::size_t>(n), 42));
    }
  }
}

TEST(Collectives, ReduceIsDeterministicAcrossRuns) {
  // Floating-point reduction order is fixed by the binomial tree, so two
  // identical runs produce bit-identical results.
  const auto run_once = [] {
    simmpi::Runtime rt(7);
    double result = 0.0;
    rt.run([&](simmpi::Comm& comm) {
      const double mine = 0.1 * (comm.rank() + 1);
      const double sum =
          simmpi::allreduce(comm, mine, [](double a, double b) { return a + b; });
      if (comm.rank() == 0) result = sum;
    });
    return result;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Collectives, AllreduceAdvancesSimulatedTime) {
  simmpi::Runtime rt(8);
  rt.run([&](simmpi::Comm& comm) {
    const double before = comm.clock().now();
    (void)simmpi::allreduce_sum(comm, 1);
    comm.barrier();
    EXPECT_GT(comm.clock().now(), before);
  });
}

// -- Allgather: the replayed ring vs the message-based ring -----------------

// The message-based ring allgather that simmpi::allgather models: n - 1
// steps, each rank forwards the block it received in the previous step.
template <class T>
std::vector<T> ring_allgather(simmpi::Comm& comm, const T& value) {
  const int n = comm.size();
  const int r = comm.rank();
  std::vector<T> out(static_cast<std::size_t>(n));
  out[static_cast<std::size_t>(r)] = value;
  T current = value;
  for (int step = 0; step < n - 1; ++step) {
    comm.send_value((r + 1) % n, simmpi::tags::kAllgather + step, current);
    current = comm.recv_value<T>((r - 1 + n) % n,
                                 simmpi::tags::kAllgather + step);
    out[static_cast<std::size_t>(((r - 1 - step) % n + n) % n)] = current;
  }
  return out;
}

struct RingCase {
  int n = 1;
  int ranks_per_node = 12;
  int shrink_victim = -1;  // dies first; the rest shrink, then gather
  int stall_victim = -1;   // dies instead of entering a gather
};

// What the allgather must reproduce, by world rank.
struct RingRun {
  std::vector<double> clock;       // at the end of the body
  std::vector<double> fail_clock;  // when the stalled gather threw
  std::vector<int> failed;         // 1: RankDeadError + failure_pending()
  std::vector<std::vector<std::vector<std::uint64_t>>> out;
  std::vector<obs::CommStats> stats;
  // Every trace event but the collective begin/end marks, which only the
  // real allgather emits.
  std::vector<std::vector<obs::TraceEvent>> events;
  std::uint64_t messages_tracked = 0;  // checker's count
  std::size_t violations = 0;
};

RingRun run_ring(const RingCase& c, bool oracle) {
  obs::Telemetry tel;
  check::CheckerConfig cc;
  cc.watchdog_s = 0.0;
  check::Checker checker(cc);
  checker.attach(&tel);
  simmpi::RuntimeOptions opts;
  opts.telemetry = &tel;
  opts.checker = &checker;
  opts.cluster.ranks_per_node = c.ranks_per_node;
  opts.contain_failures = c.shrink_victim >= 0 || c.stall_victim >= 0;
  const auto un = static_cast<std::size_t>(c.n);
  RingRun run;
  run.clock.assign(un, -1.0);
  run.fail_clock.assign(un, -1.0);
  run.failed.assign(un, 0);
  run.out.resize(un);
  simmpi::Runtime rt(c.n, opts);
  rt.run([&](simmpi::Comm& comm) {
    const int w = comm.world_rank();
    const auto uw = static_cast<std::size_t>(w);
    if (c.shrink_victim >= 0) {
      if (w == c.shrink_victim) throw simmpi::RankFailure(w, "test kill");
      try {
        comm.barrier();
      } catch (const simmpi::RankDeadError&) {
        (void)comm.shrink();
      }
    }
    // Rank-dependent entry clocks and block lengths (some empty).
    comm.charge(1.0e-6 * static_cast<double>((w * 7) % 11));
    const std::vector<std::uint64_t> mine(
        static_cast<std::size_t>((w * 5) % 7),
        1000u * static_cast<std::uint64_t>(w) + 1u);
    const auto gather = [&] {
      return oracle ? ring_allgather(comm, mine)
                    : simmpi::allgather(comm, mine);
    };
    if (c.stall_victim >= 0) {
      if (w == c.stall_victim) throw simmpi::RankFailure(w, "test kill");
      try {
        (void)gather();
      } catch (const simmpi::RankDeadError&) {
        run.failed[uw] = comm.failure_pending() ? 1 : 2;
        run.fail_clock[uw] = comm.clock().now();
        (void)comm.shrink();
      }
    }
    run.out[uw] = gather();
    // The next send's flow id continues the rank's sequence, and the next
    // rendezvous keeps its sync generation.
    const int n = comm.size();
    comm.send_value((comm.rank() + 1) % n, 7, w);
    (void)comm.recv_value<int>((comm.rank() - 1 + n) % n, 7);
    comm.barrier();
    run.clock[uw] = comm.clock().now();
  });
  for (int r = 0; r < c.n; ++r) {
    run.stats.push_back(tel.rank(r).comm);
    std::vector<obs::TraceEvent> evs;
    for (const auto& e : tel.rank(r).trace.snapshot()) {
      if (e.kind != obs::EventKind::kCollectiveBegin &&
          e.kind != obs::EventKind::kCollectiveEnd) {
        evs.push_back(e);
      }
    }
    run.events.push_back(std::move(evs));
  }
  run.messages_tracked = tel.metrics().counter("check.messages_tracked");
  run.violations = checker.violation_count();
  return run;
}

auto event_key(const obs::TraceEvent& e) {
  return std::make_tuple(e.kind, e.run, e.ts, std::string(e.name), e.a, e.b,
                         e.c);
}

auto comm_key(const obs::CommStats& s) {
  std::vector<std::tuple<int, std::uint64_t, std::uint64_t>> tags;
  for (const auto& [tag, t] : s.sent_by_tag) {
    tags.emplace_back(tag, t.messages, t.bytes);
  }
  return std::make_tuple(s.sent_messages, s.sent_bytes, s.recv_messages,
                         s.recv_bytes, s.intra_node_sent_bytes,
                         s.inter_node_sent_bytes, s.barriers, tags);
}

class AllgatherReplay : public ::testing::TestWithParam<RingCase> {};

TEST_P(AllgatherReplay, MatchesMessageRingExactly) {
  const RingCase c = GetParam();
  const RingRun want = run_ring(c, /*oracle=*/true);
  const RingRun got = run_ring(c, /*oracle=*/false);
  EXPECT_EQ(got.out, want.out);
  EXPECT_EQ(got.clock, want.clock);
  EXPECT_EQ(got.fail_clock, want.fail_clock);
  EXPECT_EQ(got.failed, want.failed);
  EXPECT_EQ(got.messages_tracked, want.messages_tracked);
  EXPECT_EQ(got.violations, 0u);
  EXPECT_EQ(want.violations, 0u);
  for (int r = 0; r < c.n; ++r) {
    const auto ur = static_cast<std::size_t>(r);
    EXPECT_EQ(comm_key(got.stats[ur]), comm_key(want.stats[ur]))
        << "rank " << r;
    ASSERT_EQ(got.events[ur].size(), want.events[ur].size()) << "rank " << r;
    for (std::size_t i = 0; i < got.events[ur].size(); ++i) {
      EXPECT_EQ(event_key(got.events[ur][i]), event_key(want.events[ur][i]))
          << "rank " << r << " event " << i;
    }
  }
  if (c.stall_victim >= 0) {
    // Every survivor stalled behind the victim and learned of the death.
    for (int r = 0; r < c.n; ++r) {
      if (r == c.stall_victim || r == c.shrink_victim) continue;
      EXPECT_EQ(got.failed[static_cast<std::size_t>(r)], 1) << "rank " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Rings, AllgatherReplay,
    ::testing::Values(RingCase{1, 12}, RingCase{2, 1}, RingCase{3, 2},
                      RingCase{5, 12}, RingCase{12, 4}, RingCase{13, 4},
                      RingCase{64, 12}, RingCase{64, 5},
                      // A group that is no longer the world.
                      RingCase{13, 4, /*shrink_victim=*/5},
                      RingCase{5, 2, /*shrink_victim=*/0},
                      // Partial rings behind a rank that never deposits,
                      // including one that wraps past rank 0.
                      RingCase{12, 4, -1, /*stall_victim=*/7},
                      RingCase{5, 2, -1, /*stall_victim=*/0},
                      RingCase{13, 3, /*shrink_victim=*/2,
                               /*stall_victim=*/9}),
    [](const ::testing::TestParamInfo<RingCase>& param_info) {
      const RingCase& c = param_info.param;
      std::string name = "n" + std::to_string(c.n) + "_rpn" +
                         std::to_string(c.ranks_per_node);
      if (c.shrink_victim >= 0) {
        name += "_shrink" + std::to_string(c.shrink_victim);
      }
      if (c.stall_victim >= 0) {
        name += "_stall" + std::to_string(c.stall_victim);
      }
      return name;
    });

// -- Allgather under rank failure --------------------------------------------

TEST(AllgatherFailure, RankKilledAtEntryFailsEverySurvivor) {
  constexpr int kRanks = 6;
  constexpr int kVictim = 2;
  fault::FaultSchedule sched;
  fault::FaultEvent ev;
  ev.point = "coll.pre";
  ev.rank = kVictim;
  ev.action = fault::FaultAction::kKillRank;
  sched.add(ev);
  simmpi::RuntimeOptions opts;
  opts.faults = &sched;
  opts.contain_failures = true;
  std::vector<int> threw(kRanks, 0);
  std::vector<int> pending(kRanks, 0);
  std::vector<std::vector<int>> after(kRanks);
  simmpi::Runtime rt(kRanks, opts);
  rt.run([&](simmpi::Comm& comm) {
    const auto w = static_cast<std::size_t>(comm.world_rank());
    try {
      (void)simmpi::allgather(comm, comm.world_rank());
    } catch (const simmpi::RankDeadError&) {
      threw[w] = 1;
      pending[w] = comm.failure_pending() ? 1 : 0;
      (void)comm.shrink();
    }
    after[w] = simmpi::allgather(comm, 10 * comm.world_rank());
  });
  const std::vector<int> want{0, 10, 30, 40, 50};
  for (int r = 0; r < kRanks; ++r) {
    if (r == kVictim) continue;
    const auto ur = static_cast<std::size_t>(r);
    EXPECT_EQ(threw[ur], 1) << "rank " << r;
    EXPECT_EQ(pending[ur], 1) << "rank " << r;
    EXPECT_EQ(after[ur], want) << "rank " << r;
  }
}

TEST(AllgatherFailure, DeathWhileOthersWaitFailsEverySurvivor) {
  constexpr int kRanks = 5;
  constexpr int kVictim = 4;
  simmpi::RuntimeOptions opts;
  opts.contain_failures = true;
  std::atomic<int> entered{0};
  std::vector<int> threw(kRanks, 0);
  std::vector<std::vector<int>> after(kRanks);
  simmpi::Runtime rt(kRanks, opts);
  rt.run([&](simmpi::Comm& comm) {
    const int w = comm.world_rank();
    if (w == kVictim) {
      // Die only once every other rank is on its way into the gather.
      while (entered.load() < kRanks - 1) std::this_thread::yield();
      throw simmpi::RankFailure(w, "test kill");
    }
    entered.fetch_add(1);
    try {
      (void)simmpi::allgather(comm, w);
    } catch (const simmpi::RankDeadError&) {
      threw[static_cast<std::size_t>(w)] = comm.failure_pending() ? 1 : 2;
      (void)comm.shrink();
    }
    after[static_cast<std::size_t>(w)] = simmpi::allgather(comm, w + 100);
  });
  const std::vector<int> want{100, 101, 102, 103};
  for (int r = 0; r < kRanks - 1; ++r) {
    EXPECT_EQ(threw[static_cast<std::size_t>(r)], 1) << "rank " << r;
    EXPECT_EQ(after[static_cast<std::size_t>(r)], want) << "rank " << r;
  }
}

TEST(AllgatherFailure, AbortedRunThrowsAbortedError) {
  constexpr int kRanks = 4;
  std::atomic<int> entered{0};
  std::atomic<int> aborted{0};
  simmpi::Runtime rt(kRanks);
  EXPECT_THROW(rt.run([&](simmpi::Comm& comm) {
    if (comm.rank() == 1) {
      while (entered.load() < kRanks - 1) std::this_thread::yield();
      throw std::runtime_error("primary failure");
    }
    entered.fetch_add(1);
    try {
      (void)simmpi::allgather(comm, comm.rank());
    } catch (const simmpi::AbortedError&) {
      aborted.fetch_add(1);
      throw;
    }
  }),
               std::runtime_error);
  EXPECT_EQ(aborted.load(), kRanks - 1);
}

// A dead rank's deposit from an earlier allgather must never complete a
// later one: the survivors fail, shrink, and then gather fresh values.
TEST(AllgatherFailure, StaleDepositOfDeadRankIsNeverRead) {
  constexpr int kRanks = 5;
  constexpr int kVictim = 3;
  simmpi::RuntimeOptions opts;
  opts.contain_failures = true;
  std::vector<int> threw(kRanks, 0);
  std::vector<std::vector<int>> first(kRanks);
  std::vector<std::vector<int>> last(kRanks);
  simmpi::Runtime rt(kRanks, opts);
  rt.run([&](simmpi::Comm& comm) {
    const int w = comm.world_rank();
    const auto uw = static_cast<std::size_t>(w);
    first[uw] = simmpi::allgather(comm, 100 + w);
    if (w == kVictim) throw simmpi::RankFailure(w, "test kill");
    try {
      (void)simmpi::allgather(comm, 200 + w);
    } catch (const simmpi::RankDeadError&) {
      threw[uw] = 1;
      (void)comm.shrink();
    }
    last[uw] = simmpi::allgather(comm, 300 + w);
  });
  for (int r = 0; r < kRanks; ++r) {
    const auto ur = static_cast<std::size_t>(r);
    EXPECT_EQ(first[ur], (std::vector<int>{100, 101, 102, 103, 104}));
    if (r == kVictim) continue;
    EXPECT_EQ(threw[ur], 1) << "rank " << r;
    EXPECT_EQ(last[ur], (std::vector<int>{300, 301, 302, 304}));
  }
}

// -- Barrier and fence under rank failure ------------------------------------
//
// Both park in RunState::sync, like the barriers inside win_create and
// Window::free.  Each case holds the other ranks until they are on their
// way into the rendezvous, then gives them time to park before the event.

enum class Rendezvous { kBarrier, kFence };

class BarrierFailure : public ::testing::TestWithParam<Rendezvous> {
 protected:
  void enter(simmpi::Comm& comm, simmpi::Window& win) const {
    if (GetParam() == Rendezvous::kBarrier) {
      comm.barrier();
    } else {
      win.fence();
    }
  }
};

void wait_until_parked(const std::atomic<int>& entered, int count) {
  while (entered.load() < count) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
}

TEST_P(BarrierFailure, DeathWhileOthersParkedFailsEverySurvivor) {
  constexpr int kRanks = 5;
  constexpr int kVictim = 2;
  simmpi::RuntimeOptions opts;
  opts.contain_failures = true;
  std::atomic<int> entered{0};
  std::vector<int> threw(kRanks, 0);
  std::vector<std::vector<int>> after(kRanks);
  simmpi::Runtime rt(kRanks, opts);
  rt.run([&](simmpi::Comm& comm) {
    const int w = comm.world_rank();
    const auto uw = static_cast<std::size_t>(w);
    simmpi::Window win = comm.win_create(std::size_t{64});
    if (w == kVictim) {
      wait_until_parked(entered, kRanks - 1);
      throw simmpi::RankFailure(w, "test kill");
    }
    entered.fetch_add(1);
    try {
      enter(comm, win);
    } catch (const simmpi::RankDeadError&) {
      threw[uw] = comm.failure_pending() ? 1 : 2;
      (void)comm.shrink();
    }
    after[uw] = simmpi::allgather(comm, w);
  });
  for (int r = 0; r < kRanks; ++r) {
    if (r == kVictim) continue;
    const auto ur = static_cast<std::size_t>(r);
    EXPECT_EQ(threw[ur], 1) << "rank " << r;
    EXPECT_EQ(after[ur], (std::vector<int>{0, 1, 3, 4})) << "rank " << r;
  }
}

TEST_P(BarrierFailure, AbortedRunThrowsAbortedError) {
  constexpr int kRanks = 4;
  std::atomic<int> entered{0};
  std::atomic<int> aborted{0};
  simmpi::Runtime rt(kRanks);
  EXPECT_THROW(rt.run([&](simmpi::Comm& comm) {
    simmpi::Window win = comm.win_create(std::size_t{64});
    if (comm.rank() == 1) {
      wait_until_parked(entered, kRanks - 1);
      throw std::runtime_error("primary failure");
    }
    entered.fetch_add(1);
    try {
      enter(comm, win);
    } catch (const simmpi::AbortedError&) {
      aborted.fetch_add(1);
      throw;
    }
  }),
               std::runtime_error);
  EXPECT_EQ(aborted.load(), kRanks - 1);
}

// A rank that parks in a shrink revokes the world: the ranks parked in the
// rendezvous wake into RankDeadError, shrink with it, and continue.
TEST_P(BarrierFailure, ShrinkParkerWakesParkedRanks) {
  constexpr int kRanks = 5;
  constexpr int kParker = 3;
  simmpi::RuntimeOptions opts;
  opts.contain_failures = true;
  std::atomic<int> entered{0};
  std::vector<int> threw(kRanks, 0);
  std::vector<std::size_t> dead(kRanks, 99);
  std::vector<std::vector<int>> after(kRanks);
  simmpi::Runtime rt(kRanks, opts);
  rt.run([&](simmpi::Comm& comm) {
    const int w = comm.world_rank();
    const auto uw = static_cast<std::size_t>(w);
    simmpi::Window win = comm.win_create(std::size_t{64});
    // collcheck:allow(CC-SCHED-DIV) — the parker skips the rendezvous
    if (w == kParker) {
      wait_until_parked(entered, kRanks - 1);
      dead[uw] = comm.shrink().dead.size();
    } else {
      entered.fetch_add(1);
      try {
        enter(comm, win);  // collcheck:allow(CC-COLL-DIV-CALL)
      } catch (const simmpi::RankDeadError&) {
        threw[uw] = comm.failure_pending() ? 1 : 2;
        dead[uw] = comm.shrink().dead.size();
      }
    }
    after[uw] = simmpi::allgather(comm, w);
  });
  for (int r = 0; r < kRanks; ++r) {
    const auto ur = static_cast<std::size_t>(r);
    EXPECT_EQ(threw[ur], r == kParker ? 0 : 1) << "rank " << r;
    EXPECT_EQ(dead[ur], 0u) << "rank " << r;
    EXPECT_EQ(after[ur], (std::vector<int>{0, 1, 2, 3, 4})) << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Rendezvous, BarrierFailure,
    ::testing::Values(Rendezvous::kBarrier, Rendezvous::kFence),
    [](const ::testing::TestParamInfo<Rendezvous>& param_info) {
      return std::string(param_info.param == Rendezvous::kBarrier ? "Barrier"
                                                                  : "Fence");
    });

}  // namespace
