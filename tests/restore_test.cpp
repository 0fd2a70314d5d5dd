// RESTORE_INPUT (the collective restart primitive): equivalence with the
// serial restore path, byte attribution, simulated-time behaviour, and
// failure propagation across ranks.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "ftrt/multilevel.hpp"
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

std::vector<std::uint8_t> private_data(int rank) {
  std::vector<std::uint8_t> data(8 * kPage);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 31 + 1009 * (rank + 1));
  }
  return data;
}

// Private data over the identity ring: rank 0's manifest and chunks live
// on stores {0, 1, 2} exactly, which lets the tests below dial in which
// loss error a failure pattern must produce.
test::DumpRun private_identity_run(int nranks) {
  core::DumpConfig c = cfg();
  c.rank_shuffle = false;
  return test::run_dump(nranks, 3, c, private_data);
}

// One restore entry point over a fresh 6-rank dump of private data, with
// the hooks the cases below use to damage rank 0's dump.  Every entry
// point must report the same errors, because they share one restore loop.
struct EntryPoint {
  std::string name;
  std::vector<std::vector<std::uint8_t>> datasets;
  std::function<core::RestoreResult(int rank)> restore;
  // Rank 0's newest manifest, and a way to plant a newer one.
  std::function<chunk::Manifest()> manifest0;
  std::function<void(const chunk::Manifest&)> put_manifest;
  std::function<void(const hash::Fingerprint&, std::span<const std::uint8_t>)>
      put_chunk;
  // Lose every copy of rank 0's manifest; ranks in `survivors` must still
  // restore afterwards.
  std::function<void()> lose_manifest;
  std::vector<int> survivors;
  // Lose every copy of rank 0's chunks while one manifest copy survives.
  std::function<void()> lose_chunks;
  // Store counts a loss error must report after either loss.
  int consulted = 0;
  int failed = 0;
  // Fail `rank`'s device (the PFS has none to fail).
  std::function<void(int rank)> fail_device;
};

constexpr int kEntryRanks = 6;

// Copy of the manifest `store` holds for rank 0.
chunk::Manifest manifest0_of(const chunk::ChunkStore& store) {
  const chunk::Manifest* m = store.manifest_for(0);
  if (m == nullptr) throw std::logic_error("store holds no manifest of rank 0");
  return *m;
}

EntryPoint replica_entry() {
  auto run = std::make_shared<test::DumpRun>(private_identity_run(kEntryRanks));
  auto ptrs = std::make_shared<std::vector<chunk::ChunkStore*>>(
      test::store_ptrs(*run));
  const auto fail_ring = [run] {
    for (int v : {0, 1, 2}) run->stores[static_cast<std::size_t>(v)].fail();
  };
  EntryPoint ep;
  ep.name = "restore_rank";
  ep.datasets = run->datasets;
  ep.restore = [ptrs](int rank) { return core::restore_rank(*ptrs, rank); };
  ep.manifest0 = [run] { return manifest0_of(run->stores[1]); };
  ep.put_manifest = [run](const chunk::Manifest& m) {
    run->stores[0].put_manifest(m);
  };
  ep.put_chunk = [run](const hash::Fingerprint& fp,
                       std::span<const std::uint8_t> payload) {
    run->stores[0].put(fp, payload);
  };
  ep.lose_manifest = fail_ring;
  ep.survivors = {1, 2, 3, 4, 5};  // ranks 1 and 2 keep their third partner
  // Stash a manifest replica outside the partner ring, then kill the ring.
  ep.lose_chunks = [run, fail_ring] {
    run->stores[5].put_manifest(manifest0_of(run->stores[1]));
    fail_ring();
  };
  ep.consulted = 3;
  ep.failed = 3;
  ep.fail_device = [run](int rank) {
    run->stores[static_cast<std::size_t>(rank)].fail();
  };
  return ep;
}

// Groups {0,1,2} and {3,4,5} with one parity shard each: rank 0's manifest
// and stream geometry live on its own store and on holder 3.
EntryPoint ec_entry() {
  core::EcConfig ec;
  ec.group_size = 3;
  ec.parity = 1;
  ec.chunk_bytes = kPage;
  ec.use_collective_dedup = false;
  auto run =
      std::make_shared<test::EcRun>(test::run_ec_dump(kEntryRanks, ec, private_data));
  auto ptrs = std::make_shared<std::vector<chunk::ChunkStore*>>();
  for (auto& s : run->stores) ptrs->push_back(&s);
  const auto fail_own_and_holder = [run] {
    run->stores[0].fail();
    run->stores[3].fail();
  };
  EntryPoint ep;
  ep.name = "ec_restore_rank";
  ep.datasets = run->datasets;
  ep.restore = [ptrs, ec](int rank) {
    return core::ec_restore_rank(*ptrs, rank, ec);
  };
  ep.manifest0 = [run] { return manifest0_of(run->stores[0]); };
  ep.put_manifest = [run](const chunk::Manifest& m) {
    run->stores[0].put_manifest(m);
  };
  ep.put_chunk = [run](const hash::Fingerprint& fp,
                       std::span<const std::uint8_t> payload) {
    run->stores[0].put(fp, payload);
  };
  ep.lose_manifest = fail_own_and_holder;
  ep.survivors = {1, 2, 4, 5};  // rank 3's group lost its member and holder
  // A manifest copy survives on store 5, but the stream geometry needed to
  // decode rank 0's chunks died with stores 0 and 3.
  ep.lose_chunks = [run, fail_own_and_holder] {
    run->stores[5].put_manifest(manifest0_of(run->stores[0]));
    fail_own_and_holder();
  };
  ep.consulted = 4;
  ep.failed = 2;
  ep.fail_device = [run](int rank) {
    run->stores[static_cast<std::size_t>(rank)].fail();
  };
  return ep;
}

// The PFS is one logical store that never fails: losing data means
// restoring from a store that no longer holds it.
EntryPoint pfs_entry() {
  auto pfs = std::make_shared<std::unique_ptr<ftrt::PfsStore>>(
      std::make_unique<ftrt::PfsStore>());
  std::vector<std::vector<std::uint8_t>> datasets(kEntryRanks);
  simmpi::Runtime rt(kEntryRanks);
  rt.run([&](simmpi::Comm& comm) {
    auto& data = datasets[static_cast<std::size_t>(comm.rank())];
    data = private_data(comm.rank());
    chunk::Dataset ds;
    ds.add_segment(data);
    (void)ftrt::pfs_dump(comm, **pfs, ds, kPage, hash::HashKind::kSha1, 1);
  });
  EntryPoint ep;
  ep.name = "pfs_restore";
  ep.datasets = std::move(datasets);
  ep.restore = [pfs](int rank) { return ftrt::pfs_restore(**pfs, rank); };
  ep.manifest0 = [pfs] { return *(*pfs)->manifest_for(0); };
  ep.put_manifest = [pfs](const chunk::Manifest& m) { (*pfs)->put_manifest(m); };
  ep.put_chunk = [pfs](const hash::Fingerprint& fp,
                       std::span<const std::uint8_t> payload) {
    (void)(*pfs)->put(fp, payload);
  };
  ep.lose_manifest = [pfs] { *pfs = std::make_unique<ftrt::PfsStore>(); };
  ep.lose_chunks = [pfs] {
    auto manifest = (*pfs)->manifest_for(0);
    *pfs = std::make_unique<ftrt::PfsStore>();
    (*pfs)->put_manifest(std::move(*manifest));
  };
  ep.consulted = 1;
  ep.failed = 0;
  ep.fail_device = [](int) {};
  return ep;
}

const std::vector<EntryPoint (*)()> kEntryPoints = {replica_entry, ec_entry,
                                                    pfs_entry};

TEST(RestoreInput, OwnPlusRemoteBytesCoverTheDataset) {
  for (const auto make : kEntryPoints) {
    EntryPoint ep = make();
    SCOPED_TRACE(ep.name);
    for (const bool degraded : {false, true}) {
      if (degraded) ep.fail_device(1);
      for (int r = 0; r < kEntryRanks; ++r) {
        const auto result = ep.restore(r);
        EXPECT_EQ(result.segments.at(0),
                  ep.datasets[static_cast<std::size_t>(r)]);
        EXPECT_EQ(result.bytes_from_own_store + result.bytes_from_remote_stores,
                  ep.datasets[static_cast<std::size_t>(r)].size())
            << "rank " << r << (degraded ? ", store 1 failed" : "");
      }
    }
  }
}

TEST(RestoreErrors, AllReplicaHoldersDownMeansManifestLost) {
  for (const auto make : kEntryPoints) {
    EntryPoint ep = make();
    SCOPED_TRACE(ep.name);
    ep.lose_manifest();
    // Rank 0's manifest copies all died with its chunk copies: the
    // restore cannot even learn what it is missing.
    try {
      (void)ep.restore(0);
      FAIL() << "restore succeeded without a manifest";
    } catch (const core::ManifestLostError& e) {
      EXPECT_EQ(e.rank(), 0);
      EXPECT_EQ(e.stores_consulted(), ep.consulted);
      EXPECT_EQ(e.stores_failed(), ep.failed);
    }
    for (const int r : ep.survivors) {
      EXPECT_EQ(ep.restore(r).segments.at(0),
                ep.datasets[static_cast<std::size_t>(r)])
          << "rank " << r;
    }
  }
}

TEST(RestoreErrors, SurvivingManifestWithoutChunksMeansChunkLost) {
  for (const auto make : kEntryPoints) {
    EntryPoint ep = make();
    SCOPED_TRACE(ep.name);
    const chunk::Manifest manifest = ep.manifest0();
    ep.lose_chunks();
    // The restore knows exactly what it needs and finds none of it.
    try {
      (void)ep.restore(0);
      FAIL() << "restore succeeded without any chunk";
    } catch (const core::ChunkLostError& e) {
      EXPECT_EQ(e.fp(), manifest.entries.front().fp);
      EXPECT_EQ(e.owner_rank(), 0);
      EXPECT_EQ(e.stores_consulted(), ep.consulted);
      EXPECT_EQ(e.stores_failed(), ep.failed);
      EXPECT_NE(std::string(e.what()).find(e.fp().hex().substr(0, 12)),
                std::string::npos)
          << e.what();
    }
  }
}

// A newest manifest is untrusted input: one whose entries do not tile its
// segments is a restore error, raised before any segment buffer is sized
// from it (1 << 62 bytes would otherwise throw length_error or bad_alloc
// from the reserve).
TEST(RestoreErrors, ManifestThatDoesNotTileItsSegmentsIsRejected) {
  for (const auto make : kEntryPoints) {
    EntryPoint ep = make();
    SCOPED_TRACE(ep.name);
    chunk::Manifest bad = ep.manifest0();
    ++bad.epoch;
    bad.segment_sizes = {1ull << 62};
    ep.put_manifest(bad);
    try {
      (void)ep.restore(0);
      FAIL() << "restore accepted a manifest that does not tile its segments";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("does not tile"), std::string::npos)
          << e.what();
    }
  }
}

// A stored payload longer than its manifest entry (a fingerprint
// collision, or a corrupt store) is caught before it is copied past the
// end of its segment.
TEST(RestoreErrors, PayloadThatWouldOverrunItsSegmentIsRejected) {
  for (const auto make : kEntryPoints) {
    EntryPoint ep = make();
    SCOPED_TRACE(ep.name);
    const auto fp = hash::Fingerprint::from_u64(0xC0111DE);
    const std::vector<std::uint8_t> oversized(2 * kPage, 0xAB);
    ep.put_chunk(fp, oversized);
    chunk::Manifest bad = ep.manifest0();
    ++bad.epoch;
    bad.segment_sizes = {kPage};
    bad.entries = {chunk::ManifestEntry{fp, kPage}};
    ASSERT_TRUE(bad.check_invariants());
    ep.put_manifest(bad);
    try {
      (void)ep.restore(0);
      FAIL() << "restore copied a payload past the end of its segment";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("overruns"), std::string::npos)
          << e.what();
    }
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
  // Fully private data: exactly K = 2 copies of everything.
  auto run = test::run_dump(kRanks, 2, cfg(), private_data);
  auto ptrs = test::store_ptrs(run);
  for (auto* s : ptrs) s->fail();  // everything gone

  simmpi::Runtime rt(kRanks);
  EXPECT_THROW(rt.run([&](simmpi::Comm& comm) {
    (void)core::restore_input(comm, ptrs);
  }),
               core::ManifestLostError);
}

}  // namespace
