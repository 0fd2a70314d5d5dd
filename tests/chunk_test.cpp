// Chunker, ChunkStore and Manifest semantics, including failure behaviour.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "chunk/dataset.hpp"
#include "chunk/manifest.hpp"
#include "chunk/store.hpp"
#include "hash/fingerprint.hpp"

namespace {

using namespace collrep;
using chunk::Chunker;
using chunk::ChunkStore;
using chunk::Dataset;
using hash::Fingerprint;

std::vector<std::uint8_t> iota_bytes(std::size_t n, std::uint8_t start = 0) {
  std::vector<std::uint8_t> v(n);
  std::iota(v.begin(), v.end(), start);
  return v;
}

// -- Chunker -----------------------------------------------------------------

TEST(Chunker, ExactMultiple) {
  const auto data = iota_bytes(1024);
  Dataset ds;
  ds.add_segment(data);
  const Chunker chunker(ds, 256);
  ASSERT_EQ(chunker.count(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(chunker.ref(i).length, 256u);
    EXPECT_EQ(chunker.bytes(i).size(), 256u);
    EXPECT_EQ(chunker.bytes(i)[0], static_cast<std::uint8_t>(i * 256));
  }
}

TEST(Chunker, TailChunkIsShort) {
  const auto data = iota_bytes(1000);
  Dataset ds;
  ds.add_segment(data);
  const Chunker chunker(ds, 256);
  ASSERT_EQ(chunker.count(), 4u);
  EXPECT_EQ(chunker.ref(3).length, 1000u - 3 * 256u);
}

TEST(Chunker, ChunksNeverStraddleSegments) {
  const auto seg_a = iota_bytes(300);
  const auto seg_b = iota_bytes(300, 100);
  Dataset ds;
  ds.add_segment(seg_a);
  ds.add_segment(seg_b);
  const Chunker chunker(ds, 256);
  ASSERT_EQ(chunker.count(), 4u);  // 256+44 | 256+44
  EXPECT_EQ(chunker.ref(0).segment, 0u);
  EXPECT_EQ(chunker.ref(1).length, 44u);
  EXPECT_EQ(chunker.ref(2).segment, 1u);
  EXPECT_EQ(chunker.ref(3).length, 44u);
}

TEST(Chunker, EmptyDataset) {
  Dataset ds;
  const Chunker chunker(ds, 4096);
  EXPECT_EQ(chunker.count(), 0u);
  EXPECT_EQ(ds.total_bytes(), 0u);
}

TEST(Chunker, EmptySegmentContributesNoChunks) {
  Dataset ds;
  ds.add_segment({});
  const auto data = iota_bytes(10);
  ds.add_segment(data);
  const Chunker chunker(ds, 4);
  EXPECT_EQ(chunker.count(), 3u);
}

TEST(Chunker, SingleByteChunks) {
  const auto data = iota_bytes(5);
  Dataset ds;
  ds.add_segment(data);
  const Chunker chunker(ds, 1);
  ASSERT_EQ(chunker.count(), 5u);
  EXPECT_EQ(chunker.bytes(4)[0], 4);
}

TEST(Chunker, ZeroChunkSizeRejected) {
  Dataset ds;
  EXPECT_THROW(Chunker(ds, 0), std::invalid_argument);
}

TEST(Chunker, ChunkLargerThanSegment) {
  const auto data = iota_bytes(100);
  Dataset ds;
  ds.add_segment(data);
  const Chunker chunker(ds, 4096);
  ASSERT_EQ(chunker.count(), 1u);
  EXPECT_EQ(chunker.ref(0).length, 100u);
}

TEST(Dataset, TotalBytesAccumulates) {
  const auto a = iota_bytes(10);
  const auto b = iota_bytes(20);
  Dataset ds;
  ds.add_segment(a);
  ds.add_segment(b);
  EXPECT_EQ(ds.total_bytes(), 30u);
  EXPECT_EQ(ds.segment_count(), 2u);
}

// -- ChunkStore --------------------------------------------------------------

TEST(ChunkStore, PutGetRoundTrip) {
  ChunkStore store;
  const auto payload = iota_bytes(128);
  const auto fp = Fingerprint::from_u64(1);
  EXPECT_TRUE(store.put(fp, payload));
  ASSERT_TRUE(store.get(fp).has_value());
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                         store.get(fp)->begin()));
  EXPECT_EQ(store.chunk_length(fp), 128u);
}

TEST(ChunkStore, DuplicatePutIsIdempotent) {
  ChunkStore store;
  const auto payload = iota_bytes(64);
  const auto fp = Fingerprint::from_u64(2);
  EXPECT_TRUE(store.put(fp, payload));
  EXPECT_FALSE(store.put(fp, payload));
  EXPECT_EQ(store.chunk_count(), 1u);
  EXPECT_EQ(store.stored_bytes(), 64u);
}

TEST(ChunkStore, MissingChunkReturnsNullopt) {
  ChunkStore store;
  EXPECT_FALSE(store.get(Fingerprint::from_u64(9)).has_value());
  EXPECT_FALSE(store.contains(Fingerprint::from_u64(9)));
  EXPECT_FALSE(store.chunk_length(Fingerprint::from_u64(9)).has_value());
}

TEST(ChunkStore, AccountingModeTracksBytesWithoutPayload) {
  ChunkStore store(chunk::StoreMode::kAccounting);
  EXPECT_TRUE(store.put_accounted(Fingerprint::from_u64(1), 4096));
  EXPECT_FALSE(store.put_accounted(Fingerprint::from_u64(1), 4096));
  EXPECT_EQ(store.stored_bytes(), 4096u);
  EXPECT_TRUE(store.contains(Fingerprint::from_u64(1)));
  EXPECT_THROW((void)store.get(Fingerprint::from_u64(1)), std::logic_error);
}

TEST(ChunkStore, PutAccountedRejectedInPayloadMode) {
  ChunkStore store(chunk::StoreMode::kPayload);
  EXPECT_THROW(store.put_accounted(Fingerprint::from_u64(1), 16),
               std::logic_error);
}

TEST(ChunkStore, AccountingModePutKeepsNoPayload) {
  ChunkStore store(chunk::StoreMode::kAccounting);
  const auto payload = iota_bytes(256);
  EXPECT_TRUE(store.put(Fingerprint::from_u64(3), payload));
  EXPECT_EQ(store.stored_bytes(), 256u);
  EXPECT_THROW((void)store.get(Fingerprint::from_u64(3)), std::logic_error);
}

TEST(ChunkStore, FailedStoreThrowsOnAccess) {
  ChunkStore store;
  const auto payload = iota_bytes(8);
  store.put(Fingerprint::from_u64(1), payload);
  store.fail();
  EXPECT_TRUE(store.failed());
  EXPECT_THROW((void)store.contains(Fingerprint::from_u64(1)),
               chunk::StoreFailedError);
  EXPECT_THROW(store.put(Fingerprint::from_u64(2), payload),
               chunk::StoreFailedError);
  store.recover();
  EXPECT_TRUE(store.contains(Fingerprint::from_u64(1)));  // data survived
}

TEST(ChunkStore, ClearResetsEverything) {
  ChunkStore store;
  const auto payload = iota_bytes(8);
  store.put(Fingerprint::from_u64(1), payload);
  chunk::Manifest m;
  m.owner_rank = 0;
  store.put_manifest(m);
  store.clear();
  EXPECT_EQ(store.chunk_count(), 0u);
  EXPECT_EQ(store.stored_bytes(), 0u);
  EXPECT_EQ(store.manifest_for(0), nullptr);
}

// -- Manifests ----------------------------------------------------------------

TEST(Manifest, CheckInvariantsAcceptsExactTilings) {
  const auto fp = Fingerprint::from_u64(9);
  chunk::Manifest m;
  EXPECT_TRUE(m.check_invariants());  // nothing to restore
  m.segment_sizes = {0, 300, 0, 4096};
  m.entries = {{fp, 256}, {fp, 44}, {fp, 4096}};
  EXPECT_TRUE(m.check_invariants());
  m.entries.insert(m.entries.begin() + 1, chunk::ManifestEntry{fp, 0});
  EXPECT_TRUE(m.check_invariants());  // an empty chunk inside a segment
}

TEST(Manifest, CheckInvariantsRejectsEverythingElse) {
  const auto fp = Fingerprint::from_u64(9);
  const auto bad = [&](std::vector<std::uint64_t> sizes,
                       std::vector<std::uint32_t> lengths) {
    chunk::Manifest m;
    m.segment_sizes = std::move(sizes);
    for (const auto len : lengths) m.entries.push_back({fp, len});
    return !m.check_invariants();
  };
  EXPECT_TRUE(bad({1ull << 62}, {}));                   // unbacked segment
  EXPECT_TRUE(bad({100}, {60}));                        // segment not full
  EXPECT_TRUE(bad({100}, {60, 60}));                    // straddles the end
  EXPECT_TRUE(bad({100, 100}, {60, 60, 80}));           // straddles a boundary
  EXPECT_TRUE(bad({}, {1}));                            // no segment at all
  EXPECT_TRUE(bad({100}, {100, 0}));                    // entry past the end
  EXPECT_TRUE(bad({~0ull, ~0ull}, {0xFFFFFFFFu, 1}));  // would overflow
}

TEST(ChunkStore, ManifestNewestEpochWins) {
  ChunkStore store;
  chunk::Manifest old_m;
  old_m.owner_rank = 3;
  old_m.epoch = 1;
  old_m.segment_sizes = {100};
  chunk::Manifest new_m;
  new_m.owner_rank = 3;
  new_m.epoch = 2;
  new_m.segment_sizes = {200};

  store.put_manifest(new_m);
  store.put_manifest(old_m);  // stale write must not regress
  const chunk::Manifest* kept = store.manifest_for(3);
  ASSERT_NE(kept, nullptr);
  EXPECT_EQ(kept->epoch, 2u);
  EXPECT_EQ(kept->segment_sizes[0], 200u);
}

TEST(ChunkStore, ManifestsPerOwnerAreIndependent) {
  ChunkStore store;
  chunk::Manifest a;
  a.owner_rank = 1;
  chunk::Manifest b;
  b.owner_rank = 2;
  b.epoch = 5;
  store.put_manifest(a);
  store.put_manifest(b);
  const chunk::Manifest* ma = store.manifest_for(1);
  const chunk::Manifest* mb = store.manifest_for(2);
  ASSERT_NE(ma, nullptr);
  ASSERT_NE(mb, nullptr);
  EXPECT_EQ(ma->epoch, 0u);
  EXPECT_EQ(mb->epoch, 5u);
  EXPECT_EQ(store.manifest_for(7), nullptr);
}

}  // namespace
