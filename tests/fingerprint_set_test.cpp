// BoundedFpSet / HMERGE algebra: frequency accumulation, the top-F bound,
// load-aware K-truncation, serialization, and reduction-order robustness.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/fingerprint_set.hpp"
#include "simmpi/archive.hpp"

namespace {

using namespace collrep;
using core::BoundedFpSet;
using hash::Fingerprint;

Fingerprint fp(std::uint64_t id) { return Fingerprint::from_u64(id); }

BoundedFpSet leaf(std::uint32_t f, int k, int nranks, int rank,
                  std::initializer_list<std::uint64_t> ids) {
  BoundedFpSet s(f, k, nranks);
  for (const auto id : ids) s.add_local(fp(id), rank);
  s.enforce_f();
  return s;
}

// Designated ranks of `f` as a materialized vector (empty when absent).
std::vector<std::int32_t> ranks_of(const BoundedFpSet& s, const Fingerprint& f) {
  const auto* e = s.find(f);
  if (e == nullptr) return {};
  const auto r = s.ranks(*e);
  return {r.begin(), r.end()};
}

TEST(BoundedFpSet, LeafConstruction) {
  const auto s = leaf(16, 3, 4, 2, {1, 2, 3});
  EXPECT_EQ(s.size(), 3u);
  ASSERT_NE(s.find(fp(1)), nullptr);
  EXPECT_EQ(s.find(fp(1))->freq, 1u);
  EXPECT_EQ(ranks_of(s, fp(1)), std::vector<std::int32_t>{2});
  EXPECT_EQ(s.rank_load()[2], 3u);
  EXPECT_TRUE(s.check_invariants());
}

TEST(BoundedFpSet, DuplicateLocalAddRejected) {
  // Adds are O(1) appends; the duplicate is diagnosed at the seal point.
  BoundedFpSet s(16, 3, 2);
  s.add_local(fp(1), 0);
  s.add_local(fp(1), 0);
  EXPECT_THROW(s.enforce_f(), std::logic_error);
}

TEST(BoundedFpSet, InvalidParamsRejected) {
  EXPECT_THROW(BoundedFpSet(0, 3, 2), std::invalid_argument);
  EXPECT_THROW(BoundedFpSet(16, 0, 2), std::invalid_argument);
  EXPECT_THROW(BoundedFpSet(16, 3, 0), std::invalid_argument);
}

TEST(BoundedFpSet, MergeSumsFrequencies) {
  auto a = leaf(16, 3, 4, 0, {1, 2});
  auto b = leaf(16, 3, 4, 1, {2, 3});
  a.merge_many({std::move(b)});
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(a.find(fp(1))->freq, 1u);
  EXPECT_EQ(a.find(fp(2))->freq, 2u);
  EXPECT_EQ(ranks_of(a, fp(2)), (std::vector<std::int32_t>{0, 1}));
  EXPECT_TRUE(a.check_invariants());
}

TEST(BoundedFpSet, MergeIncompatibleOperandsThrows) {
  auto a = leaf(16, 3, 4, 0, {1});
  EXPECT_THROW(a.merge_many({leaf(16, 2, 4, 1, {1})}), std::invalid_argument);
  auto c = leaf(16, 3, 4, 0, {1});
  EXPECT_THROW(c.merge_many({leaf(8, 3, 4, 1, {1})}), std::invalid_argument);
  auto d = leaf(16, 3, 4, 0, {1});
  EXPECT_THROW(d.merge_many({leaf(16, 3, 5, 1, {1})}), std::invalid_argument);
}

TEST(BoundedFpSet, RankListCappedAtK) {
  constexpr int kK = 3;
  auto acc = leaf(64, kK, 8, 0, {7});
  for (int r = 1; r < 8; ++r) {
    acc.merge_many({leaf(64, kK, 8, r, {7})});
  }
  const auto* e = acc.find(fp(7));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->freq, 8u);  // frequency keeps counting past K
  EXPECT_EQ(acc.ranks(*e).size(), 3u);
  EXPECT_TRUE(acc.check_invariants());
}

TEST(BoundedFpSet, TruncationDropsMostLoadedRanks) {
  constexpr int kK = 2;
  // Rank 0 is designated for many fingerprints; rank 1 and 2 for one each.
  auto heavy = leaf(64, kK, 3, 0, {10, 11, 12, 13, 14});
  auto light1 = leaf(64, kK, 3, 1, {10});
  auto light2 = leaf(64, kK, 3, 2, {10});
  heavy.merge_many({std::move(light1)});
  heavy.merge_many({std::move(light2)});
  const auto* e = heavy.find(fp(10));
  ASSERT_NE(e, nullptr);
  ASSERT_EQ(heavy.ranks(*e).size(), 2u);
  // Rank 0 (load 5) must have been eliminated in favour of ranks 1 and 2.
  EXPECT_EQ(ranks_of(heavy, fp(10)), (std::vector<std::int32_t>{1, 2}));
  EXPECT_TRUE(heavy.check_invariants());
}

TEST(BoundedFpSet, TopFKeepsMostFrequent) {
  constexpr std::uint32_t kF = 2;
  // fp 1 appears on 3 ranks, fp 2 on 2 ranks, fp 3 on 1 rank.
  auto a = leaf(kF, 4, 4, 0, {1, 2, 3});
  auto b = leaf(kF, 4, 4, 1, {1, 2});
  auto c = leaf(kF, 4, 4, 2, {1});
  a.merge_many({std::move(b)});
  a.merge_many({std::move(c)});
  EXPECT_EQ(a.size(), 2u);
  ASSERT_NE(a.find(fp(1)), nullptr);
  EXPECT_EQ(a.find(fp(1))->freq, 3u);
  ASSERT_NE(a.find(fp(2)), nullptr);
  EXPECT_EQ(a.find(fp(3)), nullptr);  // least frequent was dropped
  EXPECT_TRUE(a.check_invariants());
}

TEST(BoundedFpSet, EnforceFOnOversizedLeaf) {
  BoundedFpSet s(4, 2, 2);
  for (std::uint64_t i = 0; i < 10; ++i) s.add_local(fp(i), 0);
  const auto stats = s.enforce_f();
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(stats.entries_dropped_f, 6u);
  EXPECT_EQ(s.rank_load()[0], 4u);
  EXPECT_TRUE(s.check_invariants());
}

TEST(BoundedFpSet, MergeStatsReportScanAndDrops) {
  auto a = leaf(4, 2, 4, 0, {1, 2, 3, 4});
  auto b = leaf(4, 2, 4, 1, {5, 6, 7, 8});
  const auto stats = a.merge_many({std::move(b)});
  EXPECT_EQ(stats.entries_scanned, 4u);
  EXPECT_EQ(stats.entries_dropped_f, 4u);  // 8 candidates, F = 4
  EXPECT_EQ(a.size(), 4u);
  EXPECT_TRUE(a.check_invariants());
}

TEST(BoundedFpSet, FrequencyContentIsMergeOrderIndependent) {
  // With F large enough that nothing is dropped, any reduction order must
  // produce identical (fp -> freq) content.  Designated-rank lists may
  // differ (load-based) but their sizes must match.
  constexpr int kRanks = 6;
  const auto make_leaf = [&](int r) {
    return leaf(1024, 3, kRanks,
                r, {static_cast<std::uint64_t>(r % 3), 100, 200ull + r});
  };

  auto left = make_leaf(0);
  for (int r = 1; r < kRanks; ++r) left.merge_many({make_leaf(r)});

  // Pairwise tree order.
  auto t01 = make_leaf(0);
  t01.merge_many({make_leaf(1)});
  auto t23 = make_leaf(2);
  t23.merge_many({make_leaf(3)});
  auto t45 = make_leaf(4);
  t45.merge_many({make_leaf(5)});
  t01.merge_many({std::move(t23)});
  t01.merge_many({std::move(t45)});

  EXPECT_EQ(left.size(), t01.size());
  for (const auto& e : left.entries()) {
    const auto* other = t01.find(e.fp);
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(other->freq, e.freq);
    EXPECT_EQ(t01.ranks(*other).size(), left.ranks(e).size());
  }
  EXPECT_TRUE(left.check_invariants());
  EXPECT_TRUE(t01.check_invariants());
}

TEST(BoundedFpSet, PruneSingletonsKeepsOnlySharedEntries) {
  auto a = leaf(64, 3, 4, 0, {1, 2, 3});
  a.merge_many({leaf(64, 3, 4, 1, {2, 3})});
  a.merge_many({leaf(64, 3, 4, 2, {3})});
  EXPECT_EQ(a.prune_singletons(), 1u);  // fp 1 had freq 1
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.find(fp(1)), nullptr);
  ASSERT_NE(a.find(fp(2)), nullptr);
  EXPECT_EQ(a.find(fp(3))->freq, 3u);
  EXPECT_TRUE(a.check_invariants());
  EXPECT_EQ(a.prune_singletons(), 0u);  // idempotent
}

TEST(BoundedFpSet, SerializationRoundTrip) {
  auto a = leaf(16, 3, 4, 0, {1, 2});
  a.merge_many({leaf(16, 3, 4, 1, {2, 3})});

  const auto bytes = simmpi::to_bytes(a);
  const auto b = simmpi::from_bytes<BoundedFpSet>(bytes);

  EXPECT_EQ(b.size(), a.size());
  EXPECT_EQ(b.f_cap(), a.f_cap());
  EXPECT_EQ(b.k(), a.k());
  ASSERT_NE(b.find(fp(2)), nullptr);
  EXPECT_EQ(b.find(fp(2))->freq, 2u);
  EXPECT_EQ(ranks_of(b, fp(2)), (std::vector<std::int32_t>{0, 1}));
  EXPECT_TRUE(b.check_invariants());
}

TEST(BoundedFpSet, SerializedSizeScalesWithEntries) {
  auto small = leaf(1024, 3, 4, 0, {1});
  BoundedFpSet big(1024, 3, 4);
  for (std::uint64_t i = 0; i < 100; ++i) big.add_local(fp(i), 0);
  EXPECT_GT(simmpi::to_bytes(big).size(), simmpi::to_bytes(small).size());
}

TEST(BoundedFpSet, LoadBalancingSpreadsDesignations) {
  // All ranks hold the same 12 fingerprints; with K=2 and 4 ranks the
  // designations should end up spread rather than piled on rank 0.
  constexpr int kRanks = 4;
  constexpr int kK = 2;
  const auto make_leaf = [&](int r) {
    BoundedFpSet s(64, kK, kRanks);
    for (std::uint64_t i = 0; i < 12; ++i) s.add_local(fp(i), r);
    s.enforce_f();
    return s;
  };
  auto acc = make_leaf(0);
  for (int r = 1; r < kRanks; ++r) acc.merge_many({make_leaf(r)});

  const auto load = acc.rank_load();
  const std::uint32_t total = load[0] + load[1] + load[2] + load[3];
  EXPECT_EQ(total, 12u * kK);
  for (int r = 0; r < kRanks; ++r) {
    // Perfect balance would be 6 each; allow slack but forbid starvation
    // and monopolies.
    EXPECT_GE(load[r], 2u) << "rank " << r;
    EXPECT_LE(load[r], 10u) << "rank " << r;
  }
  EXPECT_TRUE(acc.check_invariants());
}

// -- untrusted-bytes load -------------------------------------------------------

// One hand-encoded entry: frequency varint and the rank varints (first
// rank, then ascending steps); its fingerprint is one more than the last.
struct WireEntry {
  std::uint64_t freq;
  std::vector<std::uint64_t> rank_steps;
};

// Encodes a BoundedFpSet in its wire format with `count` announced and
// `entries` following (fingerprints 1, 2, ... as one-byte deltas).
std::vector<std::uint8_t> encode_set(int k,
                                     const std::vector<std::uint32_t>& load,
                                     std::uint64_t count,
                                     const std::vector<WireEntry>& entries) {
  simmpi::OArchive ar;
  ar.put(std::uint32_t{16});  // F
  ar.put(k);
  ar.put(static_cast<std::uint32_t>(load.size()));
  ar.put(load);
  ar.put_size(count);
  for (const WireEntry& e : entries) {
    const std::uint8_t head[3] = {Fingerprint::kBytes - 1, 1, 1};
    ar.write_raw(head, sizeof head);
    ar.put_varint(e.freq);
    ar.put_varint(e.rank_steps.size());
    for (const auto step : e.rank_steps) ar.put_varint(step);
  }
  return ar.take();
}

// A well-formed set the rejection tests below corrupt one field at a time:
// K = 2 over 4 ranks, entry 1 on ranks {0, 1}, entry 2 on rank {2}.
const std::vector<std::uint32_t> kLoad = {1, 1, 1, 0};
const std::vector<WireEntry> kEntries = {{2, {0, 1}}, {1, {2}}};

BoundedFpSet load_set(const std::vector<std::uint8_t>& bytes) {
  return simmpi::from_bytes<BoundedFpSet>(bytes);
}

TEST(BoundedFpSet, HandEncodedSetLoads) {
  const auto s = load_set(encode_set(2, kLoad, 2, kEntries));
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s.entries()[0].freq, 2u);
  EXPECT_EQ(ranks_of(s, s.entries()[0].fp), (std::vector<std::int32_t>{0, 1}));
  EXPECT_EQ(ranks_of(s, s.entries()[1].fp), std::vector<std::int32_t>{2});
  EXPECT_TRUE(s.check_invariants());
}

TEST(BoundedFpSet, LoadHugeCountThrowsBeforeAllocating) {
  // A reserve() sized from this count would throw std::length_error or
  // std::bad_alloc; the bound against the remaining bytes throws first.
  EXPECT_THROW(load_set(encode_set(2, kLoad, std::uint64_t{1} << 40, kEntries)),
               std::runtime_error);
}

TEST(BoundedFpSet, LoadRejectsRankOutOfRange) {
  EXPECT_THROW(load_set(encode_set(2, kLoad, 2, {{2, {0, 1}}, {1, {4}}})),
               std::runtime_error);
  EXPECT_THROW(load_set(encode_set(2, kLoad, 2, {{2, {0, 4}}, {1, {2}}})),
               std::runtime_error);
}

TEST(BoundedFpSet, LoadRejectsRankListLongerThanK) {
  EXPECT_THROW(load_set(encode_set(1, kLoad, 2, kEntries)), std::runtime_error);
}

TEST(BoundedFpSet, LoadRejectsZeroOrOversizedFrequency) {
  EXPECT_THROW(load_set(encode_set(2, kLoad, 2, {{0, {0, 1}}, {1, {2}}})),
               std::runtime_error);
  // Would truncate to a plausible u32 frequency of 2.
  const std::uint64_t wraps_to_two = (std::uint64_t{1} << 32) + 2;
  EXPECT_THROW(
      load_set(encode_set(2, kLoad, 2, {{wraps_to_two, {0, 1}}, {1, {2}}})),
      std::runtime_error);
}

TEST(BoundedFpSet, LoadRejectsRanksNotStrictlyAscending) {
  EXPECT_THROW(load_set(encode_set(2, kLoad, 2, {{2, {1, 0}}, {1, {2}}})),
               std::runtime_error);
}

TEST(BoundedFpSet, LoadRejectsSetFailingInvariants) {
  // Every field decodes, but the load vector does not count the entries'
  // designations.
  EXPECT_THROW(load_set(encode_set(2, {1, 1, 0, 0}, 2, kEntries)),
               std::runtime_error);
}

}  // namespace
