// Chunker, ChunkStore and Manifest semantics, including failure behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <stdexcept>
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

// -- ChunkStore landing buffers --------------------------------------------------

// A landing buffer holding `payloads` back to back after a 24-byte header
// each, as a window exchange leaves it; `records` names the payloads.
struct Landed {
  std::vector<std::uint8_t> buffer;
  std::vector<ChunkStore::LandedRecord> records;
};

Landed land(ChunkStore& store,
            const std::vector<std::vector<std::uint8_t>>& payloads,
            std::uint64_t first_id) {
  constexpr std::size_t kHeader = 24;
  std::size_t bytes = 0;
  for (const auto& p : payloads) bytes += kHeader + p.size();
  Landed out{store.landing_buffer(bytes), {}};
  std::size_t at = 0;
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    std::copy(payloads[i].begin(), payloads[i].end(),
              out.buffer.begin() +
                  static_cast<std::ptrdiff_t>(at + kHeader));
    out.records.push_back({Fingerprint::from_u64(first_id + i), at + kHeader,
                           static_cast<std::uint32_t>(payloads[i].size())});
    at += kHeader + payloads[i].size();
  }
  return out;
}

TEST(ChunkStore, LandedPayloadIsIndexedInPlace) {
  ChunkStore store;
  const std::vector<std::vector<std::uint8_t>> payloads = {
      iota_bytes(100, 1), iota_bytes(37, 50), iota_bytes(256, 9)};
  auto l = land(store, payloads, 1);
  const std::uint8_t* base = l.buffer.data();
  const std::size_t size = l.buffer.size();
  EXPECT_EQ(store.commit_landed(std::move(l.buffer), l.records), 3u);
  EXPECT_EQ(store.chunk_count(), 3u);
  EXPECT_EQ(store.stored_bytes(), 100u + 37u + 256u);
  const auto got = store.get(Fingerprint::from_u64(2));
  ASSERT_TRUE(got.has_value());
  // No copy: the span points into the buffer the store took over.
  EXPECT_GE(got->data(), base);
  EXPECT_LE(got->data() + got->size(), base + size);

  // Later puts grow the index through several rehashes; the landed
  // payloads stay byte-equal where they are.
  for (std::uint64_t i = 100; i < 2100; ++i) {
    store.put(Fingerprint::from_u64(i), iota_bytes(8, static_cast<std::uint8_t>(i)));
  }
  for (std::uint64_t i = 0; i < payloads.size(); ++i) {
    const auto again = store.get(Fingerprint::from_u64(1 + i));
    ASSERT_TRUE(again.has_value());
    EXPECT_TRUE(std::equal(again->begin(), again->end(), payloads[i].begin(),
                           payloads[i].end()))
        << "payload " << i;
  }
  EXPECT_EQ(store.get(Fingerprint::from_u64(2))->data(), got->data());
}

TEST(ChunkStore, LandedDuplicateIsNotIndexedAgain) {
  ChunkStore store;
  const auto held = iota_bytes(64, 3);
  store.put(Fingerprint::from_u64(1), held);
  const auto* held_at = store.get(Fingerprint::from_u64(1))->data();
  auto l = land(store, {iota_bytes(64, 3), iota_bytes(64, 4)}, 1);
  EXPECT_EQ(store.commit_landed(std::move(l.buffer), l.records), 1u);
  EXPECT_EQ(store.chunk_count(), 2u);
  EXPECT_EQ(store.stored_bytes(), 128u);
  EXPECT_EQ(store.get(Fingerprint::from_u64(1))->data(), held_at);
}

TEST(ChunkStore, ClearRetainsLandingMemoryAndHandsItOutZeroed) {
  ChunkStore store;
  auto l = land(store, {iota_bytes(512, 1), iota_bytes(512, 2)}, 1);
  const std::uint8_t* base = l.buffer.data();
  const std::size_t size = l.buffer.size();
  ASSERT_EQ(store.commit_landed(std::move(l.buffer), l.records), 2u);
  EXPECT_EQ(store.spare_landing_bytes(), 0u);  // in use, not spare
  store.clear();
  EXPECT_EQ(store.chunk_count(), 0u);
  EXPECT_EQ(store.spare_landing_bytes(), size);
  const auto again = store.landing_buffer(size - 100);
  EXPECT_EQ(again.data(), base);  // the same memory, not a fresh region
  EXPECT_EQ(again.size(), size - 100);
  for (const auto byte : again) EXPECT_EQ(byte, 0);
  EXPECT_EQ(store.spare_landing_bytes(), 0u);  // handed out
  // wipe() keeps landing memory the same way.
  auto w = land(store, {iota_bytes(64, 5)}, 9);
  ASSERT_EQ(store.commit_landed(std::move(w.buffer), w.records), 1u);
  store.wipe();
  EXPECT_GT(store.spare_landing_bytes(), 0u);
}

TEST(ChunkStore, ClearKeepsOnlyTheLargestLandingBuffer) {
  ChunkStore store;
  auto small = land(store, {iota_bytes(100, 1)}, 1);
  ASSERT_EQ(store.commit_landed(std::move(small.buffer), small.records), 1u);
  auto large = land(store, {iota_bytes(1000, 2)}, 2);
  const std::size_t large_size = large.buffer.size();
  ASSERT_EQ(store.commit_landed(std::move(large.buffer), large.records), 1u);
  store.clear();
  EXPECT_EQ(store.spare_landing_bytes(), large_size);
}

// A buffer less than half filled by new payloads is not pinned by them:
// they are copied out, and the buffer becomes the store's spare, which the
// next exchange reuses without a clear().
TEST(ChunkStore, MostlyKnownLandingIsCopiedAndItsBufferBecomesTheSpare) {
  ChunkStore store;
  store.put(Fingerprint::from_u64(1), iota_bytes(64, 3));
  store.put(Fingerprint::from_u64(2), iota_bytes(64, 4));
  const auto fresh = iota_bytes(64, 5);
  auto l = land(store, {iota_bytes(64, 3), iota_bytes(64, 4), fresh}, 1);
  const std::uint8_t* base = l.buffer.data();
  const std::size_t capacity = l.buffer.capacity();
  EXPECT_EQ(store.commit_landed(std::move(l.buffer), l.records), 1u);
  EXPECT_EQ(store.stored_bytes(), 3u * 64u);
  EXPECT_EQ(store.landed_bytes(), 0u);
  EXPECT_EQ(store.spare_landing_bytes(), capacity);
  const auto got = store.get(Fingerprint::from_u64(3));
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(std::equal(got->begin(), got->end(), fresh.begin(), fresh.end()));
  EXPECT_TRUE(got->data() < base || got->data() >= base + capacity);
  const auto next = store.landing_buffer(capacity);
  EXPECT_EQ(next.data(), base);
  for (const auto byte : next) EXPECT_EQ(byte, 0);
}

TEST(ChunkStore, LandingWithNothingIndexedBecomesTheSpare) {
  ChunkStore store;
  store.put(Fingerprint::from_u64(1), iota_bytes(64, 3));
  auto l = land(store, {iota_bytes(64, 3)}, 1);  // a duplicate only
  const std::size_t capacity = l.buffer.capacity();
  EXPECT_EQ(store.commit_landed(std::move(l.buffer), l.records), 0u);
  EXPECT_EQ(store.landed_bytes(), 0u);
  EXPECT_EQ(store.spare_landing_bytes(), capacity);
  EXPECT_TRUE(store.landing_buffer(0).empty());  // leaves the spare alone
  EXPECT_EQ(store.spare_landing_bytes(), capacity);
  store.clear();
  EXPECT_EQ(store.spare_landing_bytes(), capacity);
}

// A large spare lent to a small exchange goes back to being the spare: a
// few new chunks do not pin it.
TEST(ChunkStore, LargeSpareLentToASmallExchangeIsNotPinned) {
  ChunkStore store;
  auto big = land(store, {iota_bytes(4096, 1)}, 1);
  ASSERT_EQ(store.commit_landed(std::move(big.buffer), big.records), 1u);
  const std::size_t big_capacity = store.landed_bytes();
  store.clear();
  ASSERT_EQ(store.spare_landing_bytes(), big_capacity);
  const auto payload = iota_bytes(64, 2);
  auto small = land(store, {payload}, 2);
  EXPECT_EQ(small.buffer.capacity(), big_capacity);
  EXPECT_EQ(store.commit_landed(std::move(small.buffer), small.records), 1u);
  EXPECT_EQ(store.landed_bytes(), 0u);
  EXPECT_EQ(store.spare_landing_bytes(), big_capacity);
  const auto got = store.get(Fingerprint::from_u64(2));
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(
      std::equal(got->begin(), got->end(), payload.begin(), payload.end()));
}

// Exchanges that each overlap the store by three quarters, without a
// clear(): no landing pins more than twice the payload it adds, and every
// chunk reads back intact.
TEST(ChunkStore, LandedBuffersHoldAtMostTwiceThePayloadTheyAdd) {
  ChunkStore store;
  const auto payload_of = [](std::uint64_t id) {
    return iota_bytes(200 + id % 7 * 40, static_cast<std::uint8_t>(id));
  };
  std::set<std::uint64_t> ids;
  for (std::uint64_t round = 0; round < 12; ++round) {
    // Round r lands ids [2r, 2r + 8): all new in round 0, then 2 of 8.
    std::vector<std::vector<std::uint8_t>> payloads;
    for (std::uint64_t id = 2 * round; id < 2 * round + 8; ++id) {
      payloads.push_back(payload_of(id));
      ids.insert(id);
    }
    const std::size_t landed_before = store.landed_bytes();
    const std::uint64_t stored_before = store.stored_bytes();
    auto l = land(store, payloads, 2 * round);
    (void)store.commit_landed(std::move(l.buffer), l.records);
    EXPECT_LE(store.landed_bytes() - landed_before,
              2 * (store.stored_bytes() - stored_before))
        << "round " << round;
  }
  EXPECT_EQ(store.chunk_count(), ids.size());
  for (const std::uint64_t id : ids) {
    const auto got = store.get(Fingerprint::from_u64(id));
    ASSERT_TRUE(got.has_value()) << "id " << id;
    const auto want = payload_of(id);
    EXPECT_TRUE(std::equal(got->begin(), got->end(), want.begin(), want.end()))
        << "id " << id;
  }
}

TEST(ChunkStore, LandedRecordOutsideItsBufferIsRejected) {
  ChunkStore store;
  auto l = land(store, {iota_bytes(64, 1)}, 1);
  l.records[0].length = static_cast<std::uint32_t>(l.buffer.size());
  EXPECT_THROW((void)store.commit_landed(std::move(l.buffer), l.records),
               std::out_of_range);
  EXPECT_EQ(store.chunk_count(), 0u);
  ChunkStore accounting(chunk::StoreMode::kAccounting);
  EXPECT_THROW((void)accounting.commit_landed({}, {}), std::logic_error);
}

TEST(ChunkStore, LandedSpansSurviveAMoveAndCopiesDoNotAlias) {
  ChunkStore store;
  const auto payload = iota_bytes(300, 7);
  auto l = land(store, {payload}, 1);
  ASSERT_EQ(store.commit_landed(std::move(l.buffer), l.records), 1u);
  const auto before = *store.get(Fingerprint::from_u64(1));

  ChunkStore moved = std::move(store);
  const auto after = *moved.get(Fingerprint::from_u64(1));
  EXPECT_EQ(after.data(), before.data());
  EXPECT_TRUE(std::equal(before.begin(), before.end(), payload.begin(),
                         payload.end()));

  const ChunkStore copy = moved;
  const auto copied = *copy.get(Fingerprint::from_u64(1));
  EXPECT_NE(copied.data(), after.data());
  EXPECT_TRUE(std::equal(copied.begin(), copied.end(), payload.begin(),
                         payload.end()));
}

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
