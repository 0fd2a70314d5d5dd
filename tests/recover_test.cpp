// Shrink-and-continue recovery: fail-stop containment in simmpi, the
// ULFM-style shrink, and recover::RecoveryService — survivors absorb rank
// deaths, adopt the orphaned datasets, and re-replicate exactly the
// shortfall (naturally distributed duplicates satisfy the new distribution
// for free).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "check/checker.hpp"
#include "core/collrep.hpp"
#include "fault/schedule.hpp"
#include "ftrt/checkpoint.hpp"
#include "ftrt/tracked_arena.hpp"
#include "apps/hpccg.hpp"
#include "obs/telemetry.hpp"
#include "recover/service.hpp"

namespace {

using namespace collrep;

constexpr std::size_t kPage = 4096;
constexpr std::size_t kPages = 16;

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
  cfg.rank_shuffle = false;
  return cfg;
}

// Kill schedule helper: each listed rank dies the moment it visits `point`.
void add_kills(fault::FaultSchedule& sched, std::initializer_list<int> ranks,
               const std::string& point,
               std::uint64_t epoch = simmpi::FaultHook::kAnyEpoch) {
  for (const int r : ranks) {
    fault::FaultEvent ev;
    ev.point = point;
    ev.rank = r;
    ev.epoch = epoch;
    ev.action = fault::FaultAction::kKillRank;
    sched.add(ev);
  }
}

// A synthetic payload of `len` bytes colored by `tag`.
std::vector<std::uint8_t> colored(std::uint8_t tag, std::size_t len = kPage) {
  std::vector<std::uint8_t> v(len);
  for (std::size_t i = 0; i < len; ++i) {
    v[i] = static_cast<std::uint8_t>(tag + i * 13);
  }
  return v;
}

chunk::Manifest manifest_of(int owner,
                            std::span<const hash::Fingerprint> fps,
                            std::uint32_t len = kPage) {
  chunk::Manifest m;
  m.owner_rank = owner;
  m.epoch = 1;
  m.segment_sizes.push_back(static_cast<std::uint64_t>(len) * fps.size());
  for (const auto& fp : fps) {
    m.entries.push_back(chunk::ManifestEntry{fp, len});
  }
  return m;
}

// -- containment protocol ------------------------------------------------------

// A killed rank unwinds cleanly; survivors learn about the death at their
// next collective as RankDeadError, shrink, and keep computing in the
// smaller world — with the check layer attached and silent throughout.
TEST(Containment, SingleDeathShrinksAndContinues) {
  fault::FaultSchedule sched;
  add_kills(sched, {2}, "test.kill");
  check::Checker checker;
  obs::Telemetry tel;
  simmpi::RuntimeOptions opts;
  opts.contain_failures = true;
  opts.faults = &sched;
  opts.checker = &checker;
  opts.telemetry = &tel;

  constexpr int kN = 6;
  std::vector<simmpi::Comm::ShrinkInfo> infos(kN);
  std::vector<int> sums(kN, -1);
  simmpi::Runtime rt(kN, opts);
  rt.run([&](simmpi::Comm& comm) {
    const int w = comm.world_rank();
    (void)simmpi::allreduce_sum(comm, 1);  // pre-death collective
    comm.fault_point("test.kill");         // rank 2 dies here
    try {
      comm.barrier();
      FAIL() << "survivor " << w << " did not observe the death";
    } catch (const simmpi::RankDeadError&) {
    }
    infos[static_cast<std::size_t>(w)] = comm.shrink();
    // The shrunken world is dense and fully operational.
    EXPECT_EQ(comm.size(), kN - 1);
    EXPECT_EQ(comm.world_of(comm.rank()), w);
    sums[static_cast<std::size_t>(w)] = simmpi::allreduce_sum(comm, 1);
    comm.barrier();
  });

  for (int w = 0; w < kN; ++w) {
    if (w == 2) {
      EXPECT_EQ(sums[2], -1);  // the dead rank never got there
      continue;
    }
    const auto& info = infos[static_cast<std::size_t>(w)];
    EXPECT_EQ(info.epoch, 1u);
    ASSERT_EQ(info.dead.size(), 1u);
    EXPECT_EQ(info.dead[0].world_rank, 2);
    EXPECT_EQ(info.dead[0].prev_rank, 2);
    EXPECT_EQ(info.alive_world, (std::vector<int>{0, 1, 3, 4, 5}));
    EXPECT_EQ(info.prev_group_world, (std::vector<int>{0, 1, 2, 3, 4, 5}));
    EXPECT_EQ(sums[static_cast<std::size_t>(w)], kN - 1);
  }
  // The watchdog/check layer must not misread a contained death.
  EXPECT_EQ(checker.violation_count(), 0u);
  EXPECT_EQ(tel.metrics().counter("simmpi.rank_deaths"), 1u);
}

// After a shrink, dense group ranks are no longer world ranks, so the
// node-shared HDD charges of DUMP_OUTPUT and RESTORE_INPUT, and the
// same-node partner count and repair, must map ranks to nodes through
// their world rank.  Three ranks, two per node: once world rank 0 dies,
// world rank 1 (dense 0) is alone on node 0 and world rank 2 (dense 1)
// alone on node 1, so neither survivor's partner shares its node.
TEST(Containment, ShrunkMultiNodeGroupDumpsAndRestores) {
  simmpi::RuntimeOptions opts;
  opts.contain_failures = true;
  opts.cluster.ranks_per_node = 2;
  std::vector<chunk::ChunkStore> stores(2);  // the survivors', by dense rank
  std::vector<chunk::ChunkStore*> ptrs{&stores[0], &stores[1]};
  std::vector<std::vector<std::uint8_t>> datasets(2);
  std::vector<std::vector<std::uint8_t>> restored(2);
  std::vector<std::uint32_t> same_node(2, 99);
  std::vector<std::uint32_t> same_node_aware(2, 99);
  simmpi::Runtime rt(3, opts);
  rt.run([&](simmpi::Comm& comm) {
    if (comm.world_rank() == 0) throw simmpi::RankFailure(0, "test kill");
    try {
      comm.barrier();
    } catch (const simmpi::RankDeadError&) {
      (void)comm.shrink();
    }
    ASSERT_EQ(comm.size(), 2);
    const auto d = static_cast<std::size_t>(comm.rank());
    // Each survivor's node holds only itself.
    const std::vector<std::uint64_t> per_rank{1, 10};
    EXPECT_EQ(comm.node_total(per_rank), per_rank[d]);

    datasets[d] = unique_pages(comm.world_rank());
    chunk::Dataset ds;
    ds.add_segment(datasets[d]);
    core::Dumper dumper(comm, stores[d], identity_ring_config());
    same_node[d] = dumper.dump_output(ds, 2).same_node_partners;
    auto [result, stats] = core::restore_input(comm, ptrs);
    EXPECT_GT(stats.total_time_s, 0.0);
    restored[d] = std::move(result.segments.at(0));

    auto aware_cfg = identity_ring_config();
    aware_cfg.node_aware_partners = true;
    aware_cfg.epoch = 1;
    core::Dumper aware(comm, stores[d], aware_cfg);
    same_node_aware[d] = aware.dump_output(ds, 2).same_node_partners;
  });
  EXPECT_EQ(restored, datasets);
  EXPECT_EQ(same_node, (std::vector<std::uint32_t>{0, 0}));
  EXPECT_EQ(same_node_aware, (std::vector<std::uint32_t>{0, 0}));
}

// -- RecoveryService over hand-built stores ------------------------------------

struct ManualWorld {
  std::vector<chunk::ChunkStore> stores;
  std::vector<chunk::ChunkStore*> ptrs;

  explicit ManualWorld(int n) {
    stores.reserve(static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) stores.emplace_back(chunk::StoreMode::kPayload);
    for (auto& s : stores) ptrs.push_back(&s);
  }
};

// Every chunk the dead rank held also sits on >= K survivors: the rebalance
// must ship NOTHING — the dedup-satisfied counter accounts for all of it.
TEST(Recovery, DedupSatisfiedRebalanceShipsZeroBytes) {
  constexpr int kN = 4;
  const auto fp_a = hash::Fingerprint::from_u64(0xA);
  const auto payload_a = colored(1);

  ManualWorld world(kN);
  for (int r = 0; r < kN; ++r) {
    world.stores[static_cast<std::size_t>(r)].put(fp_a, payload_a);
    for (int owner = 0; owner < kN; ++owner) {
      world.stores[static_cast<std::size_t>(r)].put_manifest(
          manifest_of(owner, std::span{&fp_a, 1}));
    }
  }

  fault::FaultSchedule sched;
  add_kills(sched, {3}, "test.kill");
  simmpi::RuntimeOptions opts;
  opts.contain_failures = true;
  opts.faults = &sched;
  recover::RecoveryService svc(world.ptrs, recover::RecoveryConfig{2, true});

  std::vector<recover::RecoveryStats> stats(kN);
  simmpi::Runtime rt(kN, opts);
  rt.run([&](simmpi::Comm& comm) {
    comm.fault_point("test.kill");
    try {
      comm.barrier();
    } catch (const simmpi::RankDeadError&) {
    }
    stats[static_cast<std::size_t>(comm.world_rank())] = svc.recover_world(comm);
  });

  for (int w = 0; w < kN - 1; ++w) {
    const auto& s = stats[static_cast<std::size_t>(w)];
    EXPECT_EQ(s.deaths, 1);
    EXPECT_EQ(s.world_size_after, kN - 1);
    EXPECT_EQ(s.k_effective, 2);
    EXPECT_EQ(s.chunks_total, 1u);
    EXPECT_EQ(s.dedup_satisfied_chunks, 1u);
    EXPECT_EQ(s.dedup_satisfied_bytes, kPage);
    // The acceptance counter: naturally distributed duplicates satisfy the
    // new distribution at exactly zero re-replication cost.
    EXPECT_EQ(s.rereplicated_chunks, 0u);
    EXPECT_EQ(s.rereplicated_bytes, 0u);
    EXPECT_EQ(s.orphan_bytes_total, kPage);
    EXPECT_GT(s.agreement_time_s, 0.0);
    EXPECT_GE(s.total_time_s, s.agreement_time_s);
  }
  // Orphan 0 (dead prev rank 3) lands on dense rank 0, byte-identical.
  ASSERT_EQ(stats[0].orphans.size(), 1u);
  EXPECT_EQ(stats[0].orphans[0].world_rank, 3);
  EXPECT_EQ(stats[0].orphans[0].prev_rank, 3);
  ASSERT_EQ(stats[0].orphans[0].segments.size(), 1u);
  EXPECT_EQ(stats[0].orphans[0].segments[0], payload_a);
  EXPECT_TRUE(stats[1].orphans.empty());

  // The dead store is failed; survivor manifests are re-keyed 0..2 densely.
  EXPECT_TRUE(world.stores[3].failed());
  for (int r = 0; r < kN - 1; ++r) {
    auto& s = world.stores[static_cast<std::size_t>(r)];
    for (int owner = 0; owner < kN - 1; ++owner) {
      EXPECT_NE(s.manifest_for(owner), nullptr) << r << "/" << owner;
    }
    EXPECT_EQ(s.manifest_for(kN - 1), nullptr) << r;
  }
}

// A chunk that lost a replica to the death is topped back up to K_eff; the
// counters name exactly the copies that moved and nothing else.
TEST(Recovery, RebalanceShipsExactlyTheShortfall) {
  constexpr int kN = 4;
  const auto fp_a = hash::Fingerprint::from_u64(0xA);
  const auto fp_b = hash::Fingerprint::from_u64(0xB);
  const auto payload_a = colored(1);
  const auto payload_b = colored(2);

  ManualWorld world(kN);
  for (int r = 0; r < kN; ++r) {
    world.stores[static_cast<std::size_t>(r)].put(fp_a, payload_a);
  }
  // B has replicas only on stores 2 and 3; rank 2's dataset needs it.
  world.stores[2].put(fp_b, payload_b);
  world.stores[3].put(fp_b, payload_b);
  const std::vector<hash::Fingerprint> ab{fp_a, fp_b};
  for (int r = 0; r < kN; ++r) {
    for (int owner = 0; owner < kN; ++owner) {
      auto m = owner == 2 ? manifest_of(owner, ab)
                          : manifest_of(owner, std::span{&fp_a, 1});
      world.stores[static_cast<std::size_t>(r)].put_manifest(std::move(m));
    }
  }

  fault::FaultSchedule sched;
  add_kills(sched, {3}, "test.kill");
  simmpi::RuntimeOptions opts;
  opts.contain_failures = true;
  opts.faults = &sched;
  recover::RecoveryService svc(world.ptrs, recover::RecoveryConfig{2, true});

  std::vector<recover::RecoveryStats> stats(kN);
  simmpi::Runtime rt(kN, opts);
  rt.run([&](simmpi::Comm& comm) {
    comm.fault_point("test.kill");
    try {
      comm.barrier();
    } catch (const simmpi::RankDeadError&) {
    }
    stats[static_cast<std::size_t>(comm.world_rank())] = svc.recover_world(comm);
  });

  for (int w = 0; w < kN - 1; ++w) {
    const auto& s = stats[static_cast<std::size_t>(w)];
    EXPECT_EQ(s.chunks_total, 2u);
    EXPECT_EQ(s.dedup_satisfied_chunks, 1u);  // A: 3 survivors >= 2
    EXPECT_EQ(s.rereplicated_chunks, 1u);     // B: one copy ships
    EXPECT_EQ(s.rereplicated_bytes, kPage);
  }
  // B is back at K_eff = 2 on the survivors.
  int replicas_b = 0;
  for (int r = 0; r < kN - 1; ++r) {
    replicas_b += world.stores[static_cast<std::size_t>(r)].contains(fp_b);
  }
  EXPECT_EQ(replicas_b, 2);
  // Rank 2's dataset restores in the shrunken world (dense key 2).
  std::vector<chunk::ChunkStore*> alive{world.ptrs[0], world.ptrs[1],
                                        world.ptrs[2]};
  const auto restored = core::restore_rank(alive, 2);
  ASSERT_EQ(restored.segments.size(), 1u);
  ASSERT_EQ(restored.segments[0].size(), 2 * kPage);
  EXPECT_EQ(std::memcmp(restored.segments[0].data(), payload_a.data(), kPage),
            0);
  EXPECT_EQ(
      std::memcmp(restored.segments[0].data() + kPage, payload_b.data(), kPage),
      0);
}

// A second death in the middle of the rebalance's exchange must surface
// as RankDeadError on every survivor (never a hang); a second
// recover_world then absorbs it and finishes the rebalance.
TEST(Recovery, DeathMidRebalanceSurfacesAndASecondRecoveryCompletes) {
  constexpr int kN = 4;
  const auto fp_a = hash::Fingerprint::from_u64(0xA);
  const auto fp_b = hash::Fingerprint::from_u64(0xB);
  const auto payload_a = colored(1);
  const auto payload_b = colored(2);

  ManualWorld world(kN);
  for (int r = 0; r < kN; ++r) {
    world.stores[static_cast<std::size_t>(r)].put(fp_a, payload_a);
  }
  // B has replicas only on stores 2 and 3; rank 2's dataset needs it.
  world.stores[2].put(fp_b, payload_b);
  world.stores[3].put(fp_b, payload_b);
  const std::vector<hash::Fingerprint> ab{fp_a, fp_b};
  for (int r = 0; r < kN; ++r) {
    for (int owner = 0; owner < kN; ++owner) {
      auto m = owner == 2 ? manifest_of(owner, ab)
                          : manifest_of(owner, std::span{&fp_a, 1});
      world.stores[static_cast<std::size_t>(r)].put_manifest(std::move(m));
    }
  }

  fault::FaultSchedule sched;
  add_kills(sched, {3}, "test.kill");
  add_kills(sched, {1}, "recover.exchange.mid");
  simmpi::RuntimeOptions opts;
  opts.contain_failures = true;
  opts.faults = &sched;
  recover::RecoveryService svc(world.ptrs, recover::RecoveryConfig{2, true});

  std::vector<int> interrupted(kN, 0);
  std::vector<std::optional<recover::RecoveryStats>> stats(kN);
  simmpi::Runtime rt(kN, opts);
  rt.run([&](simmpi::Comm& comm) {
    const auto w = static_cast<std::size_t>(comm.world_rank());
    comm.fault_point("test.kill");
    try {
      comm.barrier();
    } catch (const simmpi::RankDeadError&) {
    }
    try {
      stats[w] = svc.recover_world(comm);
    } catch (const simmpi::RankDeadError&) {
      ++interrupted[w];
      stats[w] = svc.recover_world(comm);
    }
  });

  for (const int w : {0, 2}) {
    const auto i = static_cast<std::size_t>(w);
    EXPECT_EQ(interrupted[i], 1) << "world rank " << w;
    ASSERT_TRUE(stats[i].has_value()) << "world rank " << w;
    EXPECT_EQ(stats[i]->deaths, 1);
    EXPECT_EQ(stats[i]->world_size_after, 2);
    EXPECT_EQ(stats[i]->k_effective, 2);
    EXPECT_EQ(stats[i]->dedup_satisfied_chunks, 1u);  // A: on both survivors
    EXPECT_EQ(stats[i]->rereplicated_chunks, 1u);     // B: one copy ships
  }
  EXPECT_FALSE(stats[1].has_value());
  EXPECT_FALSE(stats[3].has_value());
  EXPECT_TRUE(world.stores[0].contains(fp_b));
  EXPECT_TRUE(world.stores[2].contains(fp_b));
  // World rank 2's dataset (dense rank 1 after both shrinks) restores.
  std::vector<chunk::ChunkStore*> alive{world.ptrs[0], world.ptrs[2]};
  const auto restored = core::restore_rank(alive, 1);
  ASSERT_EQ(restored.segments.size(), 1u);
  ASSERT_EQ(restored.segments[0].size(), 2 * kPage);
  EXPECT_EQ(
      std::memcmp(restored.segments[0].data() + kPage, payload_b.data(), kPage),
      0);
}

// Deaths beyond what K can tolerate must fail loudly — every survivor gets
// the same rich ChunkLostError instead of hanging or silently continuing.
TEST(Recovery, CascadingDeathsBeyondKFailLoudly) {
  constexpr int kN = 4;
  const auto fp_c = hash::Fingerprint::from_u64(0xC);
  const auto fp_y = hash::Fingerprint::from_u64(0x59);
  const auto payload = colored(3);

  ManualWorld world(kN);
  for (int r = 0; r < kN; ++r) {
    world.stores[static_cast<std::size_t>(r)].put(fp_c, payload);
  }
  // Y lives only on the two stores about to die; rank 1 references it.
  world.stores[2].put(fp_y, payload);
  world.stores[3].put(fp_y, payload);
  const std::vector<hash::Fingerprint> cy{fp_c, fp_y};
  for (int r = 0; r < kN; ++r) {
    for (int owner = 0; owner < kN; ++owner) {
      auto m = owner == 1 ? manifest_of(owner, cy)
                          : manifest_of(owner, std::span{&fp_c, 1});
      world.stores[static_cast<std::size_t>(r)].put_manifest(std::move(m));
    }
  }

  fault::FaultSchedule sched;
  add_kills(sched, {2, 3}, "test.kill");
  simmpi::RuntimeOptions opts;
  opts.contain_failures = true;
  opts.faults = &sched;
  recover::RecoveryService svc(world.ptrs, recover::RecoveryConfig{2, true});

  simmpi::Runtime rt(kN, opts);
  try {
    rt.run([&](simmpi::Comm& comm) {
      comm.fault_point("test.kill");
      try {
        comm.barrier();
      } catch (const simmpi::RankDeadError&) {
      }
      (void)svc.recover_world(comm);
    });
    FAIL() << "replication exceeded must surface, not pass";
  } catch (const core::ChunkLostError& e) {
    EXPECT_EQ(e.fp(), fp_y);
    EXPECT_EQ(e.owner_rank(), 1);  // post-shrink dense owner of the dataset
    EXPECT_EQ(e.stores_consulted(), 2);
    EXPECT_EQ(e.stores_failed(), 2);
    EXPECT_NE(std::string(e.what()).find(fp_y.hex().substr(0, 12)),
              std::string::npos);
  }
}

// -- the full pipeline: death during DUMP_OUTPUT -------------------------------

struct DumpDeathRun {
  std::vector<chunk::ChunkStore> stores;
  std::vector<std::optional<recover::RecoveryStats>> recoveries;
  std::vector<std::size_t> checkpoints;
  std::string metrics_json;
  std::uint64_t recover_count = 0;
};

// Six ranks dump under K=3 (identity ring); world rank 2 is killed mid
// exchange of epoch 2.  DegradedPolicy::kShrink recovers and re-dumps in
// the 5-rank world.
DumpDeathRun run_dump_death() {
  constexpr int kN = 6;
  DumpDeathRun run;
  run.recoveries.resize(kN);
  run.checkpoints.resize(kN, 0);
  for (int r = 0; r < kN; ++r) {
    run.stores.emplace_back(chunk::StoreMode::kPayload);
  }
  std::vector<chunk::ChunkStore*> ptrs;
  for (auto& s : run.stores) ptrs.push_back(&s);

  fault::FaultSchedule sched;
  add_kills(sched, {2}, "dump.exchange.mid", /*epoch=*/2);
  sched.arm(ptrs);
  check::Checker checker;
  obs::Telemetry tel;
  simmpi::RuntimeOptions opts;
  opts.contain_failures = true;
  opts.faults = &sched;
  opts.checker = &checker;
  opts.telemetry = &tel;

  recover::RecoveryService svc(ptrs, recover::RecoveryConfig{3, true});
  simmpi::Runtime rt(kN, opts);
  rt.run([&](simmpi::Comm& comm) {
    const int w = comm.world_rank();
    ftrt::TrackedArena arena(kPage, 32);
    auto region = arena.allocate(kPages * kPage);
    const auto data = unique_pages(w);
    std::memcpy(region.data(), data.data(), data.size());

    ftrt::CheckpointConfig cfg;
    cfg.dump = identity_ring_config();
    cfg.replication_factor = 3;
    cfg.on_degraded = ftrt::DegradedPolicy::kShrink;
    cfg.recovery = &svc;
    ftrt::CheckpointRuntime ckpt(
        comm, run.stores[static_cast<std::size_t>(w)], arena, cfg);

    (void)ckpt.checkpoint_now();  // epoch 1: healthy, all six ranks
    (void)ckpt.checkpoint_now();  // epoch 2 dies; recovery + epoch-3 retry
    run.checkpoints[static_cast<std::size_t>(w)] = ckpt.checkpoints_taken();
    if (ckpt.last_recovery().has_value()) {
      run.recoveries[static_cast<std::size_t>(w)] = *ckpt.last_recovery();
    }
  });
  EXPECT_EQ(checker.violation_count(), 0u);
  run.metrics_json = tel.metrics().to_json();
  run.recover_count = tel.metrics().counter("recover.count");
  return run;
}

TEST(Recovery, DeathDuringDumpShrinksRebalancesAndRedumps) {
  auto run = run_dump_death();

  // Survivors completed both checkpoints; the dead rank completed one.
  for (int w = 0; w < 6; ++w) {
    EXPECT_EQ(run.checkpoints[static_cast<std::size_t>(w)],
              w == 2 ? 0u : 2u);
  }
  for (int w = 0; w < 6; ++w) {
    if (w == 2) {
      EXPECT_FALSE(run.recoveries[static_cast<std::size_t>(w)].has_value());
      continue;
    }
    const auto& s = *run.recoveries[static_cast<std::size_t>(w)];
    EXPECT_EQ(s.deaths, 1);
    EXPECT_EQ(s.world_size_after, 5);
    EXPECT_EQ(s.k_effective, 3);
    // Identity ring: store 2 held one of the three replicas of every chunk
    // of ranks 0, 1 and 2 (3 x 16 chunks -> one copy each); the other
    // three ranks' chunks still sit on three survivors — free.
    EXPECT_EQ(s.chunks_total, 6 * kPages);
    EXPECT_EQ(s.dedup_satisfied_chunks, 3 * kPages);
    EXPECT_EQ(s.dedup_satisfied_bytes, 3 * kPages * kPage);
    EXPECT_EQ(s.rereplicated_chunks, 3 * kPages);
    EXPECT_EQ(s.rereplicated_bytes, 3 * kPages * kPage);
    EXPECT_EQ(s.orphan_bytes_total, kPages * kPage);
  }
  // The orphaned dataset landed on the first survivor, byte-identical to
  // rank 2's last committed dump.
  const auto& adopter = *run.recoveries[0];
  ASSERT_EQ(adopter.orphans.size(), 1u);
  EXPECT_EQ(adopter.orphans[0].world_rank, 2);
  ASSERT_EQ(adopter.orphans[0].segments.size(), 1u);
  EXPECT_EQ(adopter.orphans[0].segments[0], unique_pages(2));

  // Every survivor's re-dump restores byte-identical under the dense keys.
  std::vector<chunk::ChunkStore*> alive;
  const std::vector<int> alive_world{0, 1, 3, 4, 5};
  for (const int w : alive_world) {
    alive.push_back(&run.stores[static_cast<std::size_t>(w)]);
  }
  for (int r = 0; r < 5; ++r) {
    const auto restored = core::restore_rank(alive, r);
    ASSERT_EQ(restored.segments.size(), 1u);
    EXPECT_EQ(restored.segments[0],
              unique_pages(alive_world[static_cast<std::size_t>(r)]));
  }
}

// Same schedule, same seed, same sim clock: recovery is deterministic down
// to the exported metrics (TSan-clean containment is not enough — the
// rebalance plan and timings must be bit-stable too).
TEST(Recovery, SameScheduleYieldsBitIdenticalMetrics) {
  const auto a = run_dump_death();
  const auto b = run_dump_death();
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.recover_count, 1u);
}

// -- endurance: HPCCG with repeated kills --------------------------------------

// The acceptance scenario: an HPCCG run takes periodic checkpoints while
// ranks are killed at different epochs; the job finishes in the shrunken
// world, every orphaned dataset is recovered byte-identical to its last
// committed checkpoint, and the check layer stays silent.
TEST(Recovery, HpccgEnduranceSurvivesRepeatedKills) {
  constexpr int kN = 6;
  constexpr int kRounds = 6;
  std::vector<chunk::ChunkStore> stores;
  for (int r = 0; r < kN; ++r) stores.emplace_back(chunk::StoreMode::kPayload);
  std::vector<chunk::ChunkStore*> ptrs;
  for (auto& s : stores) ptrs.push_back(&s);

  fault::FaultSchedule sched;
  for (const auto& [rank, epoch] :
       std::vector<std::pair<int, std::uint64_t>>{{5, 3}, {2, 6}}) {
    fault::FaultEvent ev;
    ev.point = "dump.exchange.mid";
    ev.rank = rank;
    ev.epoch = epoch;
    ev.action = fault::FaultAction::kKillRank;
    sched.add(ev);
  }
  sched.arm(ptrs);

  check::Checker checker;
  obs::Telemetry tel;
  simmpi::RuntimeOptions opts;
  opts.contain_failures = true;
  opts.faults = &sched;
  opts.checker = &checker;
  opts.telemetry = &tel;

  recover::RecoveryService svc(ptrs, recover::RecoveryConfig{3, true});
  // Last committed arena image per world rank (each rank writes only its
  // own slot) and every orphan captured by its adopter, by world rank.
  std::vector<std::vector<std::uint8_t>> committed(kN);
  std::vector<std::vector<std::uint8_t>> adopted(kN);
  std::vector<int> final_size(kN, -1);

  simmpi::Runtime rt(kN, opts);
  rt.run([&](simmpi::Comm& comm) {
    const int w = comm.world_rank();
    ftrt::TrackedArena arena(kPage, 64);
    apps::HpccgConfig hcfg;
    hcfg.nx = hcfg.ny = hcfg.nz = 6;
    apps::HpccgSolver solver(comm, arena, hcfg);

    ftrt::CheckpointConfig cfg;
    cfg.dump = identity_ring_config();
    cfg.replication_factor = 3;
    cfg.on_degraded = ftrt::DegradedPolicy::kShrink;
    cfg.recovery = &svc;
    ftrt::CheckpointRuntime ckpt(
        comm, stores[static_cast<std::size_t>(w)], arena, cfg);

    for (int round = 0; round < kRounds; ++round) {
      (void)solver.iterate(1);
      (void)ckpt.checkpoint_now(ptrs);
      // Committed: record this rank's arena image as of this checkpoint.
      auto& mine = committed[static_cast<std::size_t>(w)];
      mine.clear();
      const auto snap = arena.snapshot();
      for (std::size_t s = 0; s < snap.segment_count(); ++s) {
        const auto seg = snap.segment(s);
        mine.insert(mine.end(), seg.begin(), seg.end());
      }
      if (ckpt.last_recovery().has_value()) {
        for (const auto& od : ckpt.last_recovery()->orphans) {
          auto& slot = adopted[static_cast<std::size_t>(od.world_rank)];
          slot.clear();
          for (const auto& seg : od.segments) {
            slot.insert(slot.end(), seg.begin(), seg.end());
          }
        }
      }
    }
    final_size[static_cast<std::size_t>(w)] = comm.size();
  });

  // Both victims died; every survivor finished all rounds in a 4-rank world.
  for (int w = 0; w < kN; ++w) {
    const bool victim = w == 5 || w == 2;
    EXPECT_EQ(final_size[static_cast<std::size_t>(w)], victim ? -1 : kN - 2)
        << "world rank " << w;
  }
  EXPECT_EQ(sched.fired().size(), 2u);
  EXPECT_EQ(checker.violation_count(), 0u);
  EXPECT_EQ(tel.metrics().counter("simmpi.rank_deaths"), 2u);
  EXPECT_EQ(tel.metrics().counter("recover.count"), 2u);
  EXPECT_EQ(tel.metrics().counter("simmpi.shrinks"), 2u);

  // Each orphan matches the victim's last committed checkpoint image,
  // byte for byte.
  for (const int victim : {5, 2}) {
    const auto& want = committed[static_cast<std::size_t>(victim)];
    const auto& got = adopted[static_cast<std::size_t>(victim)];
    ASSERT_FALSE(want.empty()) << "victim " << victim;
    EXPECT_EQ(got, want) << "victim " << victim;
  }

  // And the final world's checkpoints restore cleanly.
  std::vector<chunk::ChunkStore*> alive;
  const std::vector<int> alive_world{0, 1, 3, 4};
  for (const int w : alive_world) {
    alive.push_back(&stores[static_cast<std::size_t>(w)]);
  }
  for (int r = 0; r < 4; ++r) {
    const auto restored = core::restore_rank(alive, r);
    std::vector<std::uint8_t> flat;
    for (const auto& seg : restored.segments) {
      flat.insert(flat.end(), seg.begin(), seg.end());
    }
    EXPECT_EQ(flat, committed[static_cast<std::size_t>(
                        alive_world[static_cast<std::size_t>(r)])])
        << "dense rank " << r;
  }
}

}  // namespace
