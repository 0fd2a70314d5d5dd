// Fault-injection harness, degraded-mode DUMP_OUTPUT, and the dedup-aware
// REPAIR scrub: the collective must survive stores dying mid-dump, report
// exactly what replication it achieved, and top the shortfall back to K
// while shipping strictly less than a full re-dump.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/collrep.hpp"
#include "fault/schedule.hpp"
#include "ftrt/checkpoint.hpp"
#include "ftrt/tracked_arena.hpp"
#include "obs/telemetry.hpp"
#include "test_util.hpp"

namespace {

using namespace collrep;

constexpr int kRanks = 6;
constexpr int kK = 3;
constexpr std::size_t kPage = 4096;
constexpr std::size_t kPages = 16;
constexpr std::uint64_t kHeader = hash::Fingerprint::kBytes + 4;

// Every page distinct within and across ranks: no natural redundancy, so
// replica counts follow the partner ring exactly.
std::vector<std::uint8_t> unique_pages(int rank) {
  std::vector<std::uint8_t> data(kPages * kPage);
  for (std::size_t p = 0; p < kPages; ++p) {
    for (std::size_t i = 0; i < kPage; ++i) {
      data[p * kPage + i] = static_cast<std::uint8_t>(
          (static_cast<std::size_t>(rank) * kPages + p) * 131 + i * 7);
    }
  }
  return data;
}

core::DumpConfig identity_ring_config() {
  core::DumpConfig cfg;
  cfg.chunk_bytes = kPage;
  // Identity shuffle: rank r's K-1 partners are r+1 and r+2 (mod n), which
  // makes the expected degraded pattern exact.
  cfg.rank_shuffle = false;
  return cfg;
}

struct FaultRun {
  std::vector<core::DumpStats> stats;
  std::vector<chunk::ChunkStore> stores;
};

// Dumps unique_pages over kRanks with `sched` attached (and armed).
FaultRun run_faulty_dump(fault::FaultSchedule& sched,
                         obs::Telemetry* tel = nullptr,
                         const core::DumpConfig& cfg = identity_ring_config()) {
  FaultRun run;
  run.stats.resize(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    run.stores.emplace_back(chunk::StoreMode::kPayload);
  }
  std::vector<chunk::ChunkStore*> ptrs;
  for (auto& s : run.stores) ptrs.push_back(&s);
  sched.arm(ptrs);
  sched.attach(tel);

  simmpi::RuntimeOptions opts;
  opts.telemetry = tel;
  opts.faults = &sched;
  simmpi::Runtime rt(kRanks, opts);
  rt.run([&](simmpi::Comm& comm) {
    const int r = comm.rank();
    const auto data = unique_pages(r);
    chunk::Dataset ds;
    ds.add_segment(data);
    core::Dumper dumper(comm, run.stores[static_cast<std::size_t>(r)], cfg);
    run.stats[static_cast<std::size_t>(r)] = dumper.dump_output(ds, kK);
  });
  return run;
}

// Replica count of every manifest-referenced fingerprint over alive stores.
std::size_t min_replicas(std::vector<chunk::ChunkStore>& stores) {
  std::vector<hash::Fingerprint> fps;
  for (auto& s : stores) {
    if (s.failed()) continue;
    for (int owner = 0; owner < static_cast<int>(stores.size()); ++owner) {
      const auto* m = s.manifest_for(owner);
      if (m == nullptr) continue;
      for (const auto& e : m->entries) fps.push_back(e.fp);
    }
  }
  std::sort(fps.begin(), fps.end());
  fps.erase(std::unique(fps.begin(), fps.end()), fps.end());
  std::size_t min_count = static_cast<std::size_t>(-1);
  for (const auto& fp : fps) {
    std::size_t count = 0;
    for (auto& s : stores) {
      if (!s.failed() && s.contains(fp)) ++count;
    }
    min_count = std::min(min_count, count);
  }
  return fps.empty() ? 0 : min_count;
}

// -- FaultSchedule -------------------------------------------------------------

TEST(FaultSchedule, FiresOnceAtNamedPointAndEpoch) {
  fault::FaultSchedule sched;
  fault::FaultEvent ev;
  ev.point = "dump.exchange.mid";
  ev.rank = 1;
  ev.epoch = 2;
  sched.add(ev);

  std::vector<chunk::ChunkStore> stores(kRanks);
  std::vector<chunk::ChunkStore*> ptrs;
  for (auto& s : stores) ptrs.push_back(&s);
  sched.arm(ptrs);

  std::vector<core::DumpStats> first(kRanks);
  std::vector<core::DumpStats> second(kRanks);
  simmpi::RuntimeOptions opts;
  opts.faults = &sched;
  simmpi::Runtime rt(kRanks, opts);
  rt.run([&](simmpi::Comm& comm) {
    const int r = comm.rank();
    const auto data = unique_pages(r);
    chunk::Dataset ds;
    ds.add_segment(data);
    core::DumpConfig cfg = identity_ring_config();
    cfg.epoch = 1;
    first[static_cast<std::size_t>(r)] =
        core::Dumper(comm, stores[static_cast<std::size_t>(r)], cfg)
            .dump_output(ds, kK);
    cfg.epoch = 2;
    second[static_cast<std::size_t>(r)] =
        core::Dumper(comm, stores[static_cast<std::size_t>(r)], cfg)
            .dump_output(ds, kK);
  });

  for (int r = 0; r < kRanks; ++r) {
    EXPECT_FALSE(first[static_cast<std::size_t>(r)].degraded);
    EXPECT_TRUE(second[static_cast<std::size_t>(r)].degraded);
  }
  const auto fired = sched.fired();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].rank, 1);
  EXPECT_EQ(fired[0].target, 1);
  EXPECT_EQ(fired[0].epoch, 2u);
  EXPECT_EQ(fired[0].point, "dump.exchange.mid");
  EXPECT_EQ(fired[0].action, fault::FaultAction::kFailStore);
  EXPECT_TRUE(stores[1].failed());
}

TEST(FaultSchedule, SkipCountDelaysFiring) {
  fault::FaultSchedule sched;
  fault::FaultEvent ev;
  ev.point = "tick";
  ev.rank = 0;
  ev.skip = 3;
  sched.add(ev);

  chunk::ChunkStore store;
  chunk::ChunkStore* ptr = &store;
  sched.arm(std::span<chunk::ChunkStore* const>{&ptr, 1});

  std::vector<bool> failed_after;
  simmpi::RuntimeOptions opts;
  opts.faults = &sched;
  simmpi::Runtime rt(1, opts);
  rt.run([&](simmpi::Comm& comm) {
    for (int i = 0; i < 6; ++i) {
      comm.fault_point("tick");
      failed_after.push_back(store.failed());
    }
  });
  // Three visits pass, the fourth fires, and the event never re-fires.
  const std::vector<bool> want{false, false, false, true, true, true};
  EXPECT_EQ(failed_after, want);
  EXPECT_EQ(sched.fired().size(), 1u);
}

TEST(FaultSchedule, SeededVictimSelectionIsDeterministic) {
  fault::FaultSchedule a(42);
  fault::FaultSchedule b(42);
  const auto va = a.add_random_store_failures(8, 3, "p");
  const auto vb = b.add_random_store_failures(8, 3, "p");
  EXPECT_EQ(va, vb);
  ASSERT_EQ(va.size(), 3u);
  std::vector<int> sorted = va;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());

  fault::FaultSchedule c(7);
  EXPECT_EQ(c.add_random_store_failures(4, 10, "p").size(), 4u);
  EXPECT_EQ(c.event_count(), 4u);
}

TEST(FaultSchedule, KillRankAbortsRunAndPropagates) {
  fault::FaultSchedule sched;
  fault::FaultEvent ev;
  ev.point = "coll.pre";
  ev.rank = 2;
  ev.action = fault::FaultAction::kKillRank;
  sched.add(ev);

  simmpi::RuntimeOptions opts;
  opts.faults = &sched;
  simmpi::Runtime rt(4, opts);
  EXPECT_THROW(rt.run([&](simmpi::Comm& comm) {
    (void)simmpi::allreduce_sum(comm, 1);
  }),
               fault::RankKilledError);
}

// -- Degraded-mode DUMP_OUTPUT -------------------------------------------------

TEST(DegradedDump, HealthySchedulePathIsUnchanged) {
  fault::FaultSchedule sched;  // attached but empty
  auto run = run_faulty_dump(sched);
  for (const auto& s : run.stats) {
    EXPECT_FALSE(s.degraded);
    EXPECT_TRUE(s.store_alive);
    EXPECT_EQ(s.k_achieved_min, kK);
    EXPECT_EQ(s.under_replicated_chunks, 0u);
    EXPECT_EQ(s.commit_skipped_chunks, 0u);
  }
  EXPECT_EQ(min_replicas(run.stores), static_cast<std::size_t>(kK));
}

// The acceptance scenario: store 2 dies after its puts are issued but
// before the fence.  With the identity ring, exactly ranks {0, 1, 2} have
// a replica on the dead store, so their chunks land at 2 of 3 copies.
TEST(DegradedDump, MidExchangeStoreLossCompletesWithExactPattern) {
  fault::FaultSchedule sched;
  fault::FaultEvent ev;
  ev.point = "dump.exchange.mid";
  ev.rank = 2;
  sched.add(ev);
  auto run = run_faulty_dump(sched);

  for (int r = 0; r < kRanks; ++r) {
    const auto& s = run.stats[static_cast<std::size_t>(r)];
    EXPECT_TRUE(s.degraded) << "rank " << r;
    EXPECT_EQ(s.store_alive, r != 2);
    const bool touched = r <= 2;  // holds a replica on the dead store
    EXPECT_EQ(s.k_achieved_min, touched ? kK - 1 : kK) << "rank " << r;
    EXPECT_EQ(s.under_replicated_chunks, touched ? kPages : 0u)
        << "rank " << r;
    EXPECT_EQ(s.under_replicated_bytes, touched ? kPages * kPage : 0u);
    // The dead store drops its 2 incoming replica streams + its own local
    // commit; everyone else commits everything.
    EXPECT_EQ(s.commit_skipped_chunks, r == 2 ? 3 * kPages : 0u);
    // Wire traffic is unaffected: the failure hit after the puts.
    EXPECT_EQ(s.sent_chunks, (kK - 1) * kPages);
  }
  EXPECT_EQ(min_replicas(run.stores), static_cast<std::size_t>(kK - 1));
}

// -- REPAIR --------------------------------------------------------------------

TEST(Repair, ShipsOnlyShortfallAndRestoresEveryChunkToK) {
  fault::FaultSchedule sched;
  fault::FaultEvent ev;
  ev.point = "dump.exchange.mid";
  ev.rank = 2;
  sched.add(ev);
  auto run = run_faulty_dump(sched);
  std::uint64_t full_redump_bytes = 0;
  for (const auto& s : run.stats) full_redump_bytes += s.sent_bytes;

  // Blank replacement disk for the dead store, then scrub.
  run.stores[2].recover_empty();
  EXPECT_EQ(run.stores[2].chunk_count(), 0u);

  obs::Telemetry tel;
  simmpi::RuntimeOptions opts;
  opts.telemetry = &tel;
  std::vector<chunk::ChunkStore*> ptrs;
  for (auto& s : run.stores) ptrs.push_back(&s);
  std::vector<core::RepairStats> rstats(kRanks);
  simmpi::Runtime rt(kRanks, opts);
  rt.run([&](simmpi::Comm& comm) {
    rstats[static_cast<std::size_t>(comm.rank())] =
        core::repair_replicas(comm, ptrs, kK);
  });

  const auto& g = rstats[0];
  EXPECT_EQ(g.alive_stores, kRanks);
  EXPECT_EQ(g.k_effective, kK);
  // 3 ranks x 16 chunks sit at 2 of 3 replicas; each needs exactly one
  // extra copy — nothing else moves.
  EXPECT_EQ(g.under_replicated_chunks, 3 * kPages);
  EXPECT_EQ(g.resent_chunks, 3 * kPages);
  EXPECT_EQ(g.resent_bytes, 3 * kPages * kPage);
  EXPECT_EQ(g.lost_chunks, 0u);
  EXPECT_EQ(g.k_achieved_min_before, kK - 1);
  EXPECT_EQ(g.k_achieved_min_after, kK);
  EXPECT_LT(g.resent_bytes, full_redump_bytes);

  // The global fields are collective results: identical everywhere.
  for (const auto& s : rstats) {
    EXPECT_EQ(s.resent_bytes, g.resent_bytes);
    EXPECT_EQ(s.k_achieved_min_before, g.k_achieved_min_before);
    EXPECT_DOUBLE_EQ(s.total_time_s, g.total_time_s);
  }

  // Wire accounting reconciles with the comm layer: every repair put is
  // one record of header + payload modeled bytes.
  EXPECT_EQ(tel.rollup().put_bytes,
            g.resent_bytes + kHeader * g.resent_chunks);
  std::uint64_t sent_sum = 0;
  for (const auto& s : rstats) sent_sum += s.sent_chunks;
  EXPECT_EQ(sent_sum, g.resent_chunks);

  EXPECT_EQ(min_replicas(run.stores), static_cast<std::size_t>(kK));

  // Every rank's dataset restores, including the one whose store died.
  for (int r = 0; r < kRanks; ++r) {
    const auto result = core::restore_rank(ptrs, r);
    ASSERT_EQ(result.segments.size(), 1u);
    EXPECT_EQ(result.segments[0], unique_pages(r));
  }
}

TEST(Repair, SameSeedYieldsBitIdenticalMetrics) {
  const auto run_once = [](std::uint64_t seed) {
    fault::FaultSchedule sched(seed);
    (void)sched.add_random_store_failures(kRanks, 2, "dump.exchange.mid");
    obs::Telemetry tel;
    auto run = run_faulty_dump(sched, &tel);
    for (auto& s : run.stores) {
      if (s.failed()) s.recover_empty();
    }
    std::vector<chunk::ChunkStore*> ptrs;
    for (auto& s : run.stores) ptrs.push_back(&s);
    simmpi::RuntimeOptions opts;
    opts.telemetry = &tel;
    simmpi::Runtime rt(kRanks, opts);
    rt.run([&](simmpi::Comm& comm) {
      (void)core::repair_replicas(comm, ptrs, kK);
    });
    return tel.metrics().to_json();
  };
  const std::string a = run_once(1234);
  const std::string b = run_once(1234);
  EXPECT_EQ(a, b);
  // A different seed picks different victims and must show up somewhere.
  const std::string c = run_once(99);
  EXPECT_NE(a, c);
}

// A store dies after the repair's puts, before its fence: the scrub still
// completes, the dead receiver commits nothing, and a second scrub brings
// every chunk back to K over the stores that are left.
TEST(Repair, StoreLossMidExchangeIsToppedUpByTheNextRepair) {
  fault::FaultSchedule dump_sched;
  fault::FaultEvent dump_ev;
  dump_ev.point = "dump.exchange.mid";
  dump_ev.rank = 2;
  dump_sched.add(dump_ev);
  auto run = run_faulty_dump(dump_sched);
  run.stores[2].recover_empty();

  // Rank 5 holds none of the under-replicated chunks (they live on ranks
  // 0, 1, 3 and 4), so it only receives in the first scrub.
  constexpr int kVictim = 5;
  fault::FaultSchedule sched;
  fault::FaultEvent ev;
  ev.point = "repair.exchange.mid";
  ev.rank = kVictim;
  sched.add(ev);
  std::vector<chunk::ChunkStore*> ptrs;
  for (auto& s : run.stores) ptrs.push_back(&s);
  sched.arm(ptrs);

  const auto repair_all = [&](fault::FaultSchedule* faults) {
    std::vector<core::RepairStats> rstats(kRanks);
    simmpi::RuntimeOptions opts;
    opts.faults = faults;
    simmpi::Runtime rt(kRanks, opts);
    rt.run([&](simmpi::Comm& comm) {
      rstats[static_cast<std::size_t>(comm.rank())] =
          core::repair_replicas(comm, ptrs, kK);
    });
    return rstats;
  };

  const auto first = repair_all(&sched);
  ASSERT_EQ(sched.fired().size(), 1u);
  EXPECT_TRUE(run.stores[kVictim].failed());
  const auto& g = first[0];
  EXPECT_EQ(g.resent_chunks, 3 * kPages);
  std::uint64_t sent = 0;
  std::uint64_t committed = 0;
  for (const auto& s : first) {
    sent += s.sent_chunks;
    committed += s.recv_chunks;
  }
  EXPECT_EQ(sent, g.resent_chunks);  // every put was issued
  EXPECT_EQ(first[kVictim].recv_chunks, 0u);
  EXPECT_GT(g.resent_chunks, committed);  // the victim's copies are missing

  const auto second = repair_all(nullptr);
  EXPECT_EQ(second[0].alive_stores, kRanks - 1);
  EXPECT_EQ(second[0].k_effective, kK);
  EXPECT_EQ(second[0].lost_chunks, 0u);
  EXPECT_GT(second[0].resent_chunks, 0u);
  EXPECT_EQ(second[0].k_achieved_min_after, kK);
  EXPECT_EQ(min_replicas(run.stores), static_cast<std::size_t>(kK));
}

// -- shortfall planner ------------------------------------------------------------

TEST(ShortfallPlan, TopsUpEveryDeficitFromHoldersToAliveNonHolders) {
  std::mt19937_64 rng(0x5F0A11);
  constexpr int kN = 8;
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<int> alive;
    for (int r = 0; r < kN; ++r) {
      if (rng() % 4 != 0) alive.push_back(r);
    }
    if (alive.empty()) alive.push_back(static_cast<int>(rng() % kN));
    // keff beyond the alive count exercises the "not enough non-holders"
    // cap.
    const int keff = 1 + static_cast<int>(rng() % 5);
    const bool payload_mode = trial % 2 == 0;
    core::ReplicaHealthSet health(keff);
    for (std::uint64_t id = 0; id < 30; ++id) {
      const auto fp = hash::Fingerprint::from_u64(id * 0x9E3779B9u + 1);
      const auto length = static_cast<std::uint32_t>(100 + rng() % 900);
      for (const int r : alive) {
        if (rng() % 3 == 0) health.add_local(fp, length, r);
      }
    }

    const auto plan = core::plan_shortfall(health, keff, alive, payload_mode);
    std::map<hash::Fingerprint, int> copies;
    std::map<int, std::vector<std::pair<std::uint64_t, std::uint64_t>>> slots;
    std::uint64_t shipped = 0;
    for (const auto& send : plan.sends) {
      const auto* e = health.find(send.fp);
      ASSERT_NE(e, nullptr);
      const auto& h = e->holders;
      EXPECT_TRUE(std::binary_search(h.begin(), h.end(), send.sender));
      EXPECT_FALSE(std::binary_search(h.begin(), h.end(), send.receiver));
      EXPECT_TRUE(std::binary_search(alive.begin(), alive.end(), send.receiver));
      EXPECT_EQ(send.length, e->length);
      ++copies[send.fp];
      slots[send.receiver].emplace_back(
          send.offset,
          core::kRecordHeaderBytes + (payload_mode ? send.length : 0));
      shipped += send.length;
    }
    // Per receiver, records tile the window from 0 with no gap or overlap.
    for (auto& [receiver, list] : slots) {
      std::sort(list.begin(), list.end());
      std::uint64_t end = 0;
      for (const auto& [offset, bytes] : list) {
        EXPECT_EQ(offset, end) << "receiver " << receiver;
        end = offset + bytes;
      }
    }
    std::uint64_t deficits = 0;
    std::uint64_t satisfied = 0;
    for (const auto& [fp, e] : health.entries()) {
      if (static_cast<int>(e.count) >= keff) {
        ++satisfied;
        EXPECT_EQ(copies.count(fp), 0u);
        continue;
      }
      ++deficits;
      const int non_holders =
          static_cast<int>(alive.size()) - static_cast<int>(e.holders.size());
      const int want =
          std::min(keff - static_cast<int>(e.count), non_holders);
      EXPECT_EQ(copies[fp], want) << trial;
    }
    EXPECT_EQ(plan.deficit_chunks, deficits);
    EXPECT_EQ(plan.satisfied_chunks, satisfied);
    EXPECT_EQ(plan.shipped_bytes, shipped);

    // Every rank plans from the same inputs; the plan must not vary.
    const auto again = core::plan_shortfall(health, keff, alive, payload_mode);
    ASSERT_EQ(again.sends.size(), plan.sends.size());
    for (std::size_t i = 0; i < plan.sends.size(); ++i) {
      EXPECT_EQ(again.sends[i].fp, plan.sends[i].fp);
      EXPECT_EQ(again.sends[i].sender, plan.sends[i].sender);
      EXPECT_EQ(again.sends[i].receiver, plan.sends[i].receiver);
      EXPECT_EQ(again.sends[i].offset, plan.sends[i].offset);
    }
  }
}

// -- untrusted-bytes load of the health set ---------------------------------------

// Encodes a ReplicaHealthSet with `count` announced and one entry per
// (count, holders) pair following.
std::vector<std::uint8_t> encode_health(
    std::uint64_t count,
    const std::vector<std::pair<std::uint32_t, std::vector<std::int32_t>>>&
        entries) {
  simmpi::OArchive ar;
  ar.put(kK);
  ar.put_size(count);
  std::uint64_t id = 1;
  for (const auto& [replicas, holders] : entries) {
    ar.put(hash::Fingerprint::from_u64(id++));
    ar.put(replicas);
    ar.put(std::uint32_t{kPage});
    ar.put(static_cast<std::uint16_t>(holders.size()));
    for (const std::int32_t r : holders) ar.put(r);
  }
  return ar.take();
}

core::ReplicaHealthSet load_health(const std::vector<std::uint8_t>& bytes) {
  return simmpi::from_bytes<core::ReplicaHealthSet>(bytes);
}

TEST(ReplicaHealthSet, HandEncodedSetLoads) {
  const auto h = load_health(encode_health(2, {{2, {0, 3}}, {kK, {}}}));
  ASSERT_EQ(h.size(), 2u);
  const auto* e = h.find(hash::Fingerprint::from_u64(1));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->count, 2u);
  EXPECT_EQ(e->holders, (std::vector<std::int32_t>{0, 3}));
}

TEST(ReplicaHealthSet, LoadHugeCountThrowsBeforeAllocating) {
  EXPECT_THROW(load_health(encode_health(std::uint64_t{1} << 40, {{2, {0}}})),
               std::runtime_error);
}

TEST(ReplicaHealthSet, LoadRejectsZeroCount) {
  EXPECT_THROW(load_health(encode_health(1, {{0, {}}})), std::runtime_error);
}

TEST(ReplicaHealthSet, LoadRejectsHoldersNotStrictlyAscending) {
  EXPECT_THROW(load_health(encode_health(1, {{2, {3, 1}}})),
               std::runtime_error);
  EXPECT_THROW(load_health(encode_health(1, {{2, {1, 1}}})),
               std::runtime_error);
}

// -- CheckpointRuntime degraded policies ---------------------------------------

ftrt::CheckpointConfig policy_config(ftrt::DegradedPolicy policy,
                                     int retries) {
  ftrt::CheckpointConfig cfg;
  cfg.dump = identity_ring_config();
  cfg.replication_factor = kK;
  cfg.on_degraded = policy;
  cfg.max_dump_retries = retries;
  return cfg;
}

// One checkpoint attempt under a schedule; every rank writes rank-colored
// arena pages so restores are checkable.
void run_checkpointed(fault::FaultSchedule& sched,
                      std::vector<chunk::ChunkStore>& stores,
                      const ftrt::CheckpointConfig& cfg,
                      const std::function<void(simmpi::Comm&,
                                               ftrt::CheckpointRuntime&)>& body) {
  std::vector<chunk::ChunkStore*> ptrs;
  for (auto& s : stores) ptrs.push_back(&s);
  sched.arm(ptrs);
  simmpi::RuntimeOptions opts;
  opts.faults = &sched;
  simmpi::Runtime rt(kRanks, opts);
  rt.run([&](simmpi::Comm& comm) {
    ftrt::TrackedArena arena(kPage, 16);
    auto region = arena.allocate(kPage * 4);
    std::memset(region.data(), comm.rank() + 1, region.size());
    ftrt::CheckpointRuntime ckpt(
        comm, stores[static_cast<std::size_t>(comm.rank())], arena, cfg);
    body(comm, ckpt);
  });
}

TEST(CheckpointPolicy, AbortThrowsDegradedDumpError) {
  fault::FaultSchedule sched;
  fault::FaultEvent ev;
  ev.point = "dump.exchange.mid";
  ev.rank = 1;
  sched.add(ev);
  std::vector<chunk::ChunkStore> stores(kRanks);
  EXPECT_THROW(
      run_checkpointed(sched, stores,
                       policy_config(ftrt::DegradedPolicy::kAbort, 0),
                       [](simmpi::Comm&, ftrt::CheckpointRuntime& ckpt) {
                         (void)ckpt.checkpoint_now();
                       }),
      ftrt::DegradedDumpError);
}

TEST(CheckpointPolicy, TransientOutageRetriesUnderFreshEpoch) {
  fault::FaultSchedule sched;
  fault::FaultEvent fail;
  fail.point = "dump.exchange.mid";
  fail.rank = 1;
  fail.epoch = 1;
  sched.add(fail);
  fault::FaultEvent heal;
  heal.point = "dump.hash";
  heal.rank = 1;
  heal.epoch = 2;
  heal.action = fault::FaultAction::kRecoverStore;
  sched.add(heal);

  std::vector<chunk::ChunkStore> stores(kRanks);
  std::vector<core::DumpStats> final_stats(kRanks);
  // Attempt under epoch 1 degrades; the retry (epoch 2) sees the store
  // back and must come out clean without tripping the abort policy.
  run_checkpointed(sched, stores,
                   policy_config(ftrt::DegradedPolicy::kAbort, 1),
                   [&](simmpi::Comm& comm, ftrt::CheckpointRuntime& ckpt) {
                     final_stats[static_cast<std::size_t>(comm.rank())] =
                         ckpt.checkpoint_now();
                     EXPECT_EQ(ckpt.checkpoints_taken(), 1u);
                   });
  for (const auto& s : final_stats) {
    EXPECT_FALSE(s.degraded);
    EXPECT_EQ(s.k_achieved_min, kK);
  }
  EXPECT_EQ(sched.fired().size(), 2u);
  EXPECT_EQ(min_replicas(stores), static_cast<std::size_t>(kK));
}

TEST(CheckpointPolicy, RepairPolicyTopsUpTheShortfall) {
  fault::FaultSchedule sched;
  fault::FaultEvent ev;
  ev.point = "dump.exchange.mid";
  ev.rank = 1;
  sched.add(ev);

  std::vector<chunk::ChunkStore> stores(kRanks);
  std::vector<chunk::ChunkStore*> ptrs;
  for (auto& s : stores) ptrs.push_back(&s);
  run_checkpointed(sched, stores,
                   policy_config(ftrt::DegradedPolicy::kRepair, 0),
                   [&](simmpi::Comm&, ftrt::CheckpointRuntime& ckpt) {
                     const auto stats = ckpt.checkpoint_now(ptrs);
                     EXPECT_TRUE(stats.degraded);
                     ASSERT_TRUE(ckpt.last_repair().has_value());
                     const auto& rep = *ckpt.last_repair();
                     // Store 1 is still down: K_eff degrades to the five
                     // survivors but every chunk reaches it.
                     EXPECT_EQ(rep.alive_stores, kRanks - 1);
                     EXPECT_EQ(rep.k_effective, kK);
                     EXPECT_GT(rep.resent_chunks, 0u);
                     EXPECT_EQ(rep.lost_chunks, 0u);
                     EXPECT_EQ(rep.k_achieved_min_after, kK);
                   });
  EXPECT_EQ(min_replicas(stores), static_cast<std::size_t>(kK));
}

// -- FailureInjector regression ------------------------------------------------

// kill_stores used to loop forever when fewer live stores remained than
// the requested count (the bound compared against the span size, not the
// live population).
TEST(FailureInjector, TerminatesWhenFewerLiveStoresThanRequested) {
  std::vector<chunk::ChunkStore> stores(4);
  stores[0].fail();
  stores[3].fail();
  std::vector<chunk::ChunkStore*> ptrs;
  for (auto& s : stores) ptrs.push_back(&s);

  ftrt::FailureInjector inj(7);
  const auto victims = inj.kill_stores(ptrs, 3);
  EXPECT_EQ(victims.size(), 2u);  // only 2 were alive
  for (const auto& s : stores) EXPECT_TRUE(s.failed());

  // Nothing left to kill: returns empty instead of spinning.
  EXPECT_TRUE(inj.kill_stores(ptrs, 1).empty());
}

// -- ChunkStore recovery modes -------------------------------------------------

TEST(ChunkStore, RecoverEmptyModelsBlankReplacementDisk) {
  const auto data = unique_pages(0);
  const hash::Fingerprint fp = hash::Fingerprint::from_u64(77);
  chunk::ChunkStore transient;
  chunk::ChunkStore replaced;
  for (auto* s : {&transient, &replaced}) {
    s->put(fp, std::span<const std::uint8_t>{data.data(), kPage});
    chunk::Manifest m;
    m.owner_rank = 0;
    s->put_manifest(m);
    s->fail();
    EXPECT_THROW((void)s->contains(fp), chunk::StoreFailedError);
  }

  transient.recover();  // power blip: contents resurface
  EXPECT_TRUE(transient.contains(fp));
  EXPECT_NE(transient.manifest_for(0), nullptr);

  replaced.recover_empty();  // new disk: alive but blank
  EXPECT_FALSE(replaced.failed());
  EXPECT_FALSE(replaced.contains(fp));
  EXPECT_EQ(replaced.manifest_for(0), nullptr);
  EXPECT_EQ(replaced.chunk_count(), 0u);
  EXPECT_EQ(replaced.stored_bytes(), 0u);
}

}  // namespace
