// RESTORE_INPUT (the collective restart primitive): equivalence with the
// serial restore path, byte attribution, simulated-time behaviour, and
// failure propagation across ranks.
#include <gtest/gtest.h>

#include "test_util.hpp"

namespace {

using namespace collrep;

constexpr std::size_t kPage = 128;

core::DumpConfig cfg() {
  core::DumpConfig c;
  c.chunk_bytes = kPage;
  return c;
}

test::DumpRun dumped_run(int nranks, int k) {
  return test::run_dump(nranks, k, cfg(), [](int rank) {
    return test::mixed_pages(rank, 16, kPage);
  });
}

TEST(RestoreInput, MatchesSerialRestore) {
  constexpr int kRanks = 6;
  auto run = dumped_run(kRanks, 3);
  auto ptrs = test::store_ptrs(run);

  std::vector<core::RestoreResult> collective(kRanks);
  simmpi::Runtime rt(kRanks);
  rt.run([&](simmpi::Comm& comm) {
    auto [result, stats] = core::restore_input(comm, ptrs);
    EXPECT_GT(stats.total_time_s, 0.0);
    collective[static_cast<std::size_t>(comm.rank())] = std::move(result);
  });

  for (int r = 0; r < kRanks; ++r) {
    const auto serial = core::restore_rank(ptrs, r);
    EXPECT_EQ(collective[static_cast<std::size_t>(r)].segments,
              serial.segments);
    EXPECT_EQ(collective[static_cast<std::size_t>(r)].segments[0],
              run.datasets[static_cast<std::size_t>(r)]);
  }
}

TEST(RestoreInput, ByteAttributionDistinguishesSources) {
  constexpr int kRanks = 4;
  auto run = dumped_run(kRanks, 3);
  auto ptrs = test::store_ptrs(run);

  // Healthy restore: rank 1 serves everything locally.
  {
    const auto healthy = core::restore_rank(ptrs, 1);
    EXPECT_GT(healthy.bytes_from_own_store, 0u);
  }

  // With rank 1's store gone, every byte must come from partners.
  run.stores[1].fail();
  const auto degraded = core::restore_rank(ptrs, 1);
  EXPECT_EQ(degraded.bytes_from_own_store, 0u);
  EXPECT_EQ(degraded.bytes_from_remote_stores,
            run.datasets[1].size());
  EXPECT_EQ(degraded.segments[0], run.datasets[1]);
}

TEST(RestoreInput, DegradedRestartCostsMoreSimulatedTime) {
  constexpr int kRanks = 6;
  const auto timed_restore = [&](bool fail_one) {
    auto run = dumped_run(kRanks, 3);
    auto ptrs = test::store_ptrs(run);
    if (fail_one) run.stores[0].fail();
    double time = 0.0;
    simmpi::Runtime rt(kRanks);
    rt.run([&](simmpi::Comm& comm) {
      const auto [result, stats] = core::restore_input(comm, ptrs);
      if (comm.rank() == 0) time = stats.total_time_s;
    });
    return time;
  };
  // Network fetches make the degraded restart strictly slower.
  EXPECT_GT(timed_restore(true), timed_restore(false));
}

// Private data over the identity ring: rank 0's manifest and chunks live
// on stores {0, 1, 2} exactly, which lets the tests below dial in which
// loss error a failure pattern must produce.
test::DumpRun private_identity_run(int nranks) {
  core::DumpConfig c = cfg();
  c.rank_shuffle = false;
  return test::run_dump(nranks, 3, c, [](int rank) {
    std::vector<std::uint8_t> data(8 * kPage);
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<std::uint8_t>(i * 31 + 1009 * (rank + 1));
    }
    return data;
  });
}

TEST(RestoreErrors, AllReplicaHoldersDownMeansManifestLost) {
  constexpr int kRanks = 6;
  auto run = private_identity_run(kRanks);
  auto ptrs = test::store_ptrs(run);
  for (int v : {0, 1, 2}) run.stores[static_cast<std::size_t>(v)].fail();

  // Rank 0's manifest replicas all died with its chunk replicas: the
  // restore cannot even learn what it is missing.
  EXPECT_THROW((void)core::restore_rank(ptrs, 0), core::ManifestLostError);
  // Ranks 1 and 2 lost stores but their third partner survived.
  for (int r : {1, 2, 3, 4, 5}) {
    const auto result = core::restore_rank(ptrs, r);
    EXPECT_EQ(result.segments[0],
              run.datasets[static_cast<std::size_t>(r)]);
  }
}

TEST(RestoreErrors, SurvivingManifestWithoutChunksMeansChunkLost) {
  constexpr int kRanks = 6;
  auto run = private_identity_run(kRanks);
  auto ptrs = test::store_ptrs(run);
  // Stash an extra manifest replica outside the partner ring, then kill
  // the ring: the restore knows exactly what it needs and finds none of it.
  const auto* manifest0 = run.stores[1].manifest_for(0);
  ASSERT_NE(manifest0, nullptr);
  run.stores[5].put_manifest(*manifest0);
  for (int v : {0, 1, 2}) run.stores[static_cast<std::size_t>(v)].fail();

  EXPECT_THROW((void)core::restore_rank(ptrs, 0), core::ChunkLostError);
}

// A partner's newest manifest is untrusted input: one whose entries do
// not tile its segments is a restore error, raised before any segment
// buffer is sized from it (1 << 62 bytes would otherwise throw
// length_error or bad_alloc from the reserve).
TEST(RestoreErrors, ManifestThatDoesNotTileItsSegmentsIsRejected) {
  constexpr int kRanks = 6;
  auto run = private_identity_run(kRanks);
  auto ptrs = test::store_ptrs(run);
  const chunk::Manifest* newest = run.stores[1].manifest_for(0);
  ASSERT_NE(newest, nullptr);
  chunk::Manifest bad = *newest;
  ++bad.epoch;
  bad.segment_sizes = {1ull << 62};
  run.stores[1].put_manifest(bad);

  try {
    (void)core::restore_rank(ptrs, 0);
    FAIL() << "restore accepted a manifest that does not tile its segments";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("does not tile"), std::string::npos)
        << e.what();
  }
}

// A stored payload longer than its manifest entry (a fingerprint
// collision, or a corrupt store) is caught before it is copied past the
// end of its segment.
TEST(RestoreErrors, PayloadThatWouldOverrunItsSegmentIsRejected) {
  constexpr int kRanks = 6;
  auto run = private_identity_run(kRanks);
  auto ptrs = test::store_ptrs(run);
  const auto fp = hash::Fingerprint::from_u64(0xC0111DE);
  const std::vector<std::uint8_t> oversized(2 * kPage, 0xAB);
  run.stores[0].put(fp, oversized);
  const chunk::Manifest* newest = run.stores[0].manifest_for(0);
  ASSERT_NE(newest, nullptr);
  chunk::Manifest bad = *newest;
  ++bad.epoch;
  bad.segment_sizes = {kPage};
  bad.entries = {chunk::ManifestEntry{fp, kPage}};
  ASSERT_TRUE(bad.check_invariants());
  run.stores[0].put_manifest(bad);

  try {
    (void)core::restore_rank(ptrs, 0);
    FAIL() << "restore copied a payload past the end of its segment";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("overruns"), std::string::npos)
        << e.what();
  }
}

TEST(RestoreErrors, PartialFailurePropagatesCollectivelyWithoutDeadlock) {
  constexpr int kRanks = 6;
  auto run = private_identity_run(kRanks);
  auto ptrs = test::store_ptrs(run);
  // Only rank 0's restore is doomed; the other five would succeed and sit
  // in the collective until the abort reaches them.  The run must end with
  // the originating exception, not hang or surface AbortedError.
  for (int v : {0, 1, 2}) run.stores[static_cast<std::size_t>(v)].fail();

  simmpi::Runtime rt(kRanks);
  EXPECT_THROW(rt.run([&](simmpi::Comm& comm) {
    (void)core::restore_input(comm, ptrs);
  }),
               core::ManifestLostError);
}

TEST(RestoreInput, LossPropagatesAsException) {
  constexpr int kRanks = 4;
  auto run = test::run_dump(kRanks, 2, cfg(), [](int rank) {
    // Fully private data: exactly K = 2 copies of everything.
    std::vector<std::uint8_t> data(8 * kPage);
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<std::uint8_t>(i * 31 + 1009 * (rank + 1));
    }
    return data;
  });
  auto ptrs = test::store_ptrs(run);
  for (auto* s : ptrs) s->fail();  // everything gone

  simmpi::Runtime rt(kRanks);
  EXPECT_THROW(rt.run([&](simmpi::Comm& comm) {
    (void)core::restore_input(comm, ptrs);
  }),
               core::ManifestLostError);
}

}  // namespace
