// Randomized end-to-end property sweeps: for arbitrary synthetic workload
// shapes, rank counts, replication factors and strategies, the pipeline
// must uphold its invariants — replication floor, byte conservation,
// restore round-trips under maximal tolerated failures — plus topology
// properties of the node-disjoint repair and corruption detection.
#include <gtest/gtest.h>

#include "apps/rng.hpp"
#include "apps/synth.hpp"
#include "core/planner.hpp"
#include "test_util.hpp"

namespace {

using namespace collrep;

class EndToEndProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EndToEndProperty, InvariantsHoldForRandomWorkloads) {
  apps::SplitMix64 rng(GetParam() * 0x9E37u + 17);
  const int nranks = 2 + static_cast<int>(rng.next() % 11);
  const int k = 1 + static_cast<int>(rng.next() % 4);
  const auto strategy =
      static_cast<core::Strategy>(rng.next() % 3);

  apps::SynthSpec spec;
  spec.chunk_bytes = 128 << (rng.next() % 3);  // 128..512
  spec.chunks = 8 + rng.next() % 40;
  spec.local_dup = 0.4 * rng.next_double();
  spec.global_shared = rng.next_double();
  spec.global_pool = 16 + static_cast<std::uint32_t>(rng.next() % 64);
  spec.heavy_rank_fraction = rng.next_double() < 0.5 ? 0.0 : 0.25;
  spec.heavy_multiplier = 3.0;
  spec.seed = GetParam();

  core::DumpConfig cfg;
  cfg.strategy = strategy;
  cfg.chunk_bytes = spec.chunk_bytes;
  cfg.threshold_f = 1u << 10;
  auto run = test::run_dump(nranks, k, cfg, [&](int rank) {
    return apps::synth_dataset(rank, nranks, spec);
  });

  // Conservation: sent == received, globally.
  std::uint64_t sent = 0;
  std::uint64_t recv = 0;
  for (const auto& s : run.stats) {
    sent += s.sent_bytes;
    recv += s.recv_bytes;
  }
  EXPECT_EQ(sent, recv);

  // Replication floor.
  EXPECT_GE(test::min_replica_count(run),
            static_cast<std::size_t>(std::min(k, nranks)));

  // Restore round-trip under the maximal tolerated failure count.
  const int keff = std::min(k, nranks);
  auto ptrs = test::store_ptrs(run);
  int failures = 0;
  apps::SplitMix64 failure_rng(GetParam());
  while (failures < keff - 1) {
    const auto victim = static_cast<std::size_t>(
        failure_rng.next() % static_cast<std::uint64_t>(nranks));
    if (!run.stores[victim].failed()) {
      run.stores[victim].fail();
      ++failures;
    }
  }
  for (int r = 0; r < nranks; ++r) {
    const auto restored = core::restore_rank(ptrs, r);
    ASSERT_EQ(restored.segments.size(), 1u);
    EXPECT_EQ(restored.segments[0], run.datasets[static_cast<std::size_t>(r)])
        << "seed=" << GetParam() << " n=" << nranks << " k=" << k
        << " strategy=" << static_cast<int>(strategy);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EndToEndProperty,
                         ::testing::Range<std::uint64_t>(1, 33));

// ---- node-disjoint repair properties ---------------------------------------

class NodeDisjointProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NodeDisjointProperty, NeverIncreasesAndZeroWhenFeasible) {
  apps::SplitMix64 rng(GetParam() * 131);
  const int n = 4 + static_cast<int>(rng.next() % 40);
  const int k = 2 + static_cast<int>(rng.next() % 4);
  sim::ClusterConfig cluster;
  cluster.ranks_per_node = 1 + static_cast<int>(rng.next() % 4);

  // Random starting permutation.
  auto shuffle = core::identity_shuffle(n);
  for (int i = n - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(
        rng.next() % static_cast<std::uint64_t>(i + 1));
    std::swap(shuffle[static_cast<std::size_t>(i)], shuffle[j]);
  }

  std::vector<int> node_of;
  for (int r = 0; r < n; ++r) node_of.push_back(cluster.node_of(r));
  const int before = core::same_node_partner_count(shuffle, k, node_of);
  const auto repaired = core::make_node_disjoint(shuffle, k, node_of);
  const int after = core::same_node_partner_count(repaired, k, node_of);

  EXPECT_LE(after, before);

  // Still a permutation.
  auto sorted = repaired;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < n; ++i) EXPECT_EQ(sorted[static_cast<std::size_t>(i)], i);

  // With plenty of nodes relative to K and balanced node sizes, the
  // greedy must reach zero (round-robin over nodes is always feasible
  // when every node holds <= n/k ranks).
  const int nodes = cluster.node_count(n);
  const int max_per_node = cluster.ranks_per_node;
  if (nodes >= 2 * k && max_per_node * k <= n) {
    EXPECT_EQ(after, 0) << "n=" << n << " k=" << k
                        << " rpn=" << cluster.ranks_per_node;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NodeDisjointProperty,
                         ::testing::Range<std::uint64_t>(1, 41));

// ---- corruption / collision detection ---------------------------------------

TEST(Corruption, LengthMismatchDetectedAtRestore) {
  core::DumpConfig cfg;
  cfg.chunk_bytes = 128;
  auto run = test::run_dump(3, 2, cfg, [](int rank) {
    return test::mixed_pages(rank, 6, 128);
  });
  auto ptrs = test::store_ptrs(run);

  // Corrupt every surviving copy of one chunk: replace it with a
  // different-length payload under the same fingerprint (the observable
  // half of a hash collision / torn write).
  const auto* manifest = run.stores[0].manifest_for(0);
  ASSERT_NE(manifest, nullptr);
  const auto fp = manifest->entries[0].fp;
  const std::vector<std::uint8_t> bogus(17, 0xBD);
  for (auto& store : run.stores) {
    if (store.contains(fp)) {
      // Content addressing refuses duplicate puts, so clear + repopulate.
      chunk::ChunkStore rebuilt;
      rebuilt.put(fp, bogus);
      for (int owner = 0; owner < 3; ++owner) {
        if (const auto* m = store.manifest_for(owner)) rebuilt.put_manifest(*m);
      }
      for (int owner = 0; owner < 3; ++owner) {
        const auto* m = store.manifest_for(owner);
        if (m == nullptr) continue;
        for (const auto& e : m->entries) {
          if (e.fp == fp) continue;
          if (const auto p = store.get(e.fp)) rebuilt.put(e.fp, *p);
        }
      }
      store = std::move(rebuilt);
    }
  }
  EXPECT_THROW((void)core::restore_rank(ptrs, 0), std::runtime_error);
}

}  // namespace
