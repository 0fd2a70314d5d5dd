// Unit tests for the hash substrate: SHA-1 against RFC 3174 / FIPS test
// vectors, XXH64 and CRC-32C against published reference values, FNV-1a
// against its specification constants, and the Fingerprint/registry API.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <compare>
#include <cstring>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "chunk/cdc.hpp"
#include "chunk/dataset.hpp"
#include "core/local_dedup.hpp"
#include "hash/crc32c.hpp"
#include "hash/fingerprint.hpp"
#include "hash/fnv.hpp"
#include "hash/hasher.hpp"
#include "hash/sha1.hpp"
#include "hash/xx64.hpp"

namespace {

using namespace collrep::hash;

std::span<const std::uint8_t> as_bytes(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

std::string sha1_hex(std::string_view input) {
  const auto digest = Sha1::digest(as_bytes(input));
  return Fingerprint{std::span<const std::uint8_t>{digest}}.hex();
}

// -- SHA-1 -------------------------------------------------------------------

TEST(Sha1, EmptyString) {
  EXPECT_EQ(sha1_hex(""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1, Abc) {
  EXPECT_EQ(sha1_hex("abc"), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, Rfc3174TestCase2) {
  EXPECT_EQ(sha1_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, MillionAs) {
  const std::string input(1000000, 'a');
  EXPECT_EQ(sha1_hex(input), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, QuickBrownFox) {
  EXPECT_EQ(sha1_hex("The quick brown fox jumps over the lazy dog"),
            "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12");
}

TEST(Sha1, StreamingMatchesOneShot) {
  const std::string input =
      "streaming interface must produce identical digests";
  for (std::size_t split = 0; split <= input.size(); ++split) {
    Sha1 h;
    h.update(as_bytes(std::string_view{input}.substr(0, split)));
    h.update(as_bytes(std::string_view{input}.substr(split)));
    std::array<std::uint8_t, Sha1::kDigestBytes> digest{};
    h.finish(digest);
    EXPECT_EQ(digest, Sha1::digest(as_bytes(input))) << "split=" << split;
  }
}

TEST(Sha1, StreamingByteAtATime) {
  const std::string input(257, 'x');
  Sha1 h;
  for (char c : input) {
    h.update({reinterpret_cast<const std::uint8_t*>(&c), 1});
  }
  std::array<std::uint8_t, Sha1::kDigestBytes> digest{};
  h.finish(digest);
  EXPECT_EQ(digest, Sha1::digest(as_bytes(input)));
}

TEST(Sha1, ResetAllowsReuse) {
  Sha1 h;
  h.update(as_bytes("first"));
  std::array<std::uint8_t, Sha1::kDigestBytes> d1{};
  h.finish(d1);
  h.reset();
  h.update(as_bytes("abc"));
  std::array<std::uint8_t, Sha1::kDigestBytes> d2{};
  h.finish(d2);
  EXPECT_EQ(d2, Sha1::digest(as_bytes("abc")));
}

// Block-boundary lengths are where padding bugs hide.
class Sha1LengthSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Sha1LengthSweep, PaddingConsistency) {
  const std::size_t len = GetParam();
  std::vector<std::uint8_t> data(len);
  for (std::size_t i = 0; i < len; ++i) {
    data[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  // Digest computed in two pieces must equal the one-shot digest for every
  // length near the 64-byte block boundary.
  Sha1 h;
  const std::size_t half = len / 2;
  h.update(std::span<const std::uint8_t>{data.data(), half});
  h.update(std::span<const std::uint8_t>{data.data() + half, len - half});
  std::array<std::uint8_t, Sha1::kDigestBytes> streamed{};
  h.finish(streamed);
  EXPECT_EQ(streamed, Sha1::digest(data));
}

INSTANTIATE_TEST_SUITE_P(BlockBoundaries, Sha1LengthSweep,
                         ::testing::Values(0, 1, 54, 55, 56, 57, 63, 64, 65,
                                           118, 119, 120, 127, 128, 129, 255,
                                           256, 1000));

// Known answers for the sweep's byte pattern (i * 37 + 11) at lengths that
// fit the padding into the last data block (55, 65, 119), spill it into a
// second block (56, 63, 120) or start it on a fresh block (64, 512,
// 4096).  The streaming comparison above cannot catch a padding bug, since
// both sides share finish().  Reference digests from Python's hashlib:
//   hashlib.sha1(bytes((i * 37 + 11) & 0xff for i in range(n))).hexdigest()
TEST(Sha1, PaddingKnownAnswers) {
  const std::pair<std::size_t, const char*> kVectors[] = {
      {55, "c4622048cfef59b72875839ee7ae1cbcf55e7658"},
      {56, "ddc12942656468475970fa4fa49161f52ed138e4"},
      {63, "7f8c3fa49f1297bd8b9feb964b6b419987f9f0d1"},
      {64, "a334b47180c61fd522f99905ec02c36f9e848211"},
      {65, "dd27d9eb923d39687e10872c3e8133ba2f0a68a1"},
      {119, "bea949473b1ec34747ce121c3293624b5d9d8f84"},
      {120, "bf05266acd3ec21592b4d42aaea97fa6f3e51926"},
      {512, "f3042998a20f9db0d9e64f95131a576d6031f7f0"},
      {4096, "c4a4f8cb5d332af2c2c970d28d45e66d22b12b82"},
  };
  for (const auto& [len, hex] : kVectors) {
    std::vector<std::uint8_t> data(len);
    for (std::size_t i = 0; i < len; ++i) {
      data[i] = static_cast<std::uint8_t>(i * 37 + 11);
    }
    const auto digest = Sha1::digest(data);
    EXPECT_EQ(Fingerprint{std::span<const std::uint8_t>{digest}}.hex(), hex)
        << "len=" << len;
  }
}

// -- XXH64 -------------------------------------------------------------------

TEST(Xx64, PublishedVectors) {
  // Reference values from the xxHash specification test suite.
  EXPECT_EQ(xx64(as_bytes(""), 0), 0xEF46DB3751D8E999ull);
  EXPECT_EQ(xx64(as_bytes(""), 1), 0xD5AFBA1336A3BE4Bull);
  EXPECT_EQ(xx64(as_bytes("a"), 0), 0xD24EC4F1A98C6E5Bull);
  EXPECT_EQ(xx64(as_bytes("abc"), 0), 0x44BC2CF5AD770999ull);
  EXPECT_EQ(xx64(as_bytes("The quick brown fox jumps over the lazy dog"), 0),
            0x0B242D361FDA71BCull);
}

TEST(Xx64, SeedChangesResult) {
  const auto data = as_bytes("same input, different seed");
  EXPECT_NE(xx64(data, 0), xx64(data, 1));
}

TEST(Xx64, AllInternalPaths) {
  // <4, <8, <32 and >=32 byte paths.
  for (std::size_t len : {0u, 1u, 3u, 4u, 7u, 8u, 31u, 32u, 33u, 64u, 100u}) {
    std::vector<std::uint8_t> a(len, 0x5A);
    std::vector<std::uint8_t> b(len, 0x5A);
    EXPECT_EQ(xx64(a), xx64(b));
    if (len > 0) {
      b[len / 2] ^= 1;
      EXPECT_NE(xx64(a), xx64(b)) << "len=" << len;
    }
  }
}

// -- FNV-1a ------------------------------------------------------------------

TEST(Fnv, SpecificationConstants) {
  EXPECT_EQ(fnv1a64(as_bytes("")), kFnvOffsetBasis);
  // Known FNV-1a 64 values.
  EXPECT_EQ(fnv1a64(as_bytes("a")), 0xAF63DC4C8601EC8Cull);
  EXPECT_EQ(fnv1a64(as_bytes("foobar")), 0x85944171F73967E8ull);
}

TEST(Fnv, Constexpr) {
  static constexpr std::uint8_t kBytes[] = {'a'};
  static_assert(fnv1a64(std::span<const std::uint8_t>{kBytes, 1}) ==
                0xAF63DC4C8601EC8Cull);
  SUCCEED();
}

// -- CRC-32C -----------------------------------------------------------------

TEST(Crc32c, PublishedVectors) {
  // RFC 3720 (iSCSI) reference vectors.
  std::vector<std::uint8_t> zeros(32, 0);
  EXPECT_EQ(crc32c(zeros), 0x8A9136AAu);
  std::vector<std::uint8_t> ones(32, 0xFF);
  EXPECT_EQ(crc32c(ones), 0x62A8AB43u);
  std::vector<std::uint8_t> inc(32);
  for (std::size_t i = 0; i < 32; ++i) inc[i] = static_cast<std::uint8_t>(i);
  EXPECT_EQ(crc32c(inc), 0x46DD794Eu);
  EXPECT_EQ(crc32c(as_bytes("123456789")), 0xE3069283u);
}

TEST(Crc32c, EmptyIsZero) { EXPECT_EQ(crc32c(as_bytes("")), 0u); }

// -- Fingerprint -------------------------------------------------------------

TEST(Fingerprint, DefaultIsZero) {
  Fingerprint fp;
  EXPECT_EQ(fp.hex(), std::string(40, '0'));
  EXPECT_EQ(fp.prefix64(), 0u);
}

TEST(Fingerprint, FromU64RoundTrip) {
  const auto fp = Fingerprint::from_u64(0x0123456789ABCDEFull);
  EXPECT_EQ(fp.prefix64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(fp.hex().substr(16), std::string(24, '0'));
}

TEST(Fingerprint, Ordering) {
  const auto a = Fingerprint::from_u64(1);
  const auto b = Fingerprint::from_u64(2);
  EXPECT_LT(a, b);  // little-endian low byte differs
  EXPECT_NE(a, b);
  EXPECT_EQ(a, Fingerprint::from_u64(1));
}

// The word-wise operator<=> must be the byte-lexicographic order.  Random
// pairs, plus pairs equal but for one byte at each limb edge (7/8, 15/16)
// and at the last byte.
TEST(Fingerprint, WordOrderIsByteLexicographic) {
  const auto bytewise = [](const Fingerprint& a, const Fingerprint& b) {
    const auto x = a.bytes();
    const auto y = b.bytes();
    return std::lexicographical_compare_three_way(x.begin(), x.end(),
                                                  y.begin(), y.end());
  };
  std::mt19937_64 rng(7);
  const auto random_fp = [&] {
    Fingerprint fp;
    for (auto& byte : fp.bytes()) byte = static_cast<std::uint8_t>(rng());
    return fp;
  };
  std::vector<std::pair<Fingerprint, Fingerprint>> pairs;
  for (int i = 0; i < 2000; ++i) pairs.emplace_back(random_fp(), random_fp());
  for (const std::size_t at : {0, 7, 8, 15, 16, 19}) {
    for (int i = 0; i < 64; ++i) {
      const Fingerprint a = random_fp();
      Fingerprint b = a;
      b.bytes()[at] = static_cast<std::uint8_t>(rng());
      pairs.emplace_back(a, b);
      pairs.emplace_back(b, a);
      // The top bit of the differing byte decides a signed compare.
      b.bytes()[at] = static_cast<std::uint8_t>(a.bytes()[at] ^ 0x80u);
      pairs.emplace_back(a, b);
    }
  }
  for (const auto& [a, b] : pairs) {
    ASSERT_EQ(a <=> b, bytewise(a, b)) << a.hex() << " vs " << b.hex();
    ASSERT_EQ(a < b, bytewise(a, b) < 0);
    ASSERT_EQ(a == b, bytewise(a, b) == 0);
  }
  EXPECT_EQ(pairs.front().first <=> pairs.front().first,
            std::strong_ordering::equal);
}

TEST(Fingerprint, LimbsRoundTrip) {
  std::array<std::uint8_t, Fingerprint::kBytes> bytes{};
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(0x11 * (i + 1));
  }
  const Fingerprint fp{std::span<const std::uint8_t>{bytes}};
  const auto limbs = fp.limbs();
  EXPECT_EQ(limbs.w0, 0x1122334455667788ull);
  EXPECT_EQ(limbs.w1, 0x99AABBCCDDEEFF10ull);
  EXPECT_EQ(limbs.w2, 0x21324354u);
  std::array<std::uint8_t, Fingerprint::kBytes> out{};
  Fingerprint::store_limbs(out.data(), limbs);
  EXPECT_EQ(out, bytes);
}

TEST(Fingerprint, HashUsableInContainers) {
  std::unordered_map<Fingerprint, int> map;
  map[Fingerprint::from_u64(7)] = 1;
  map[Fingerprint::from_u64(8)] = 2;
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.at(Fingerprint::from_u64(7)), 1);
}

TEST(Fingerprint, TruncatesLongDigest) {
  std::vector<std::uint8_t> digest(32, 0xAB);
  const Fingerprint fp{digest};
  std::string expected;
  for (int i = 0; i < 20; ++i) expected += "ab";
  EXPECT_EQ(fp.hex(), expected);
}

// -- Batched fingerprints ----------------------------------------------------
//
// SHA-1 hashes runs of equal-length chunks 16 at a time; every batch must
// give exactly the per-chunk fingerprints.  ctest runs these suites once
// more under COLLREP_KERNELS=scalar, which drives the same lane assembly
// through the scalar 16-lane kernel.

const std::vector<std::size_t> kBatchLengths = {0,   1,   55,  56,  63,  64,
                                                65,  119, 120, 511, 512, 4096};

// `count` chunks cut from `pool` at odd offsets, lengths drawn by
// `length_of(i)`; every seventh chunk repeats an earlier span.
template <typename LengthOf>
std::vector<std::span<const std::uint8_t>> cut_chunks(
    const std::vector<std::uint8_t>& pool, std::size_t count,
    std::mt19937_64& rng, LengthOf length_of) {
  std::vector<std::span<const std::uint8_t>> out;
  for (std::size_t i = 0; i < count; ++i) {
    if (i % 7 == 6) {
      const auto repeat = out[i / 2];
      out.push_back(repeat);
      continue;
    }
    const std::size_t len = length_of(i);
    const std::size_t off = 1 + 2 * (rng() % ((pool.size() - len) / 2 - 1));
    out.push_back(std::span<const std::uint8_t>{pool}.subspan(off, len));
  }
  return out;
}

void expect_batch_matches(const ChunkHasher& hasher,
                          std::span<const std::span<const std::uint8_t>> chunks,
                          const std::string& what) {
  std::vector<Fingerprint> got(chunks.size());
  hasher.fingerprint_batch(chunks, got);
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    EXPECT_EQ(got[i], hasher.fingerprint(chunks[i]))
        << what << " chunk=" << i << " of " << chunks.size()
        << " len=" << chunks[i].size();
  }
}

std::vector<std::uint8_t> random_pool(std::mt19937_64& rng, std::size_t n) {
  std::vector<std::uint8_t> pool(n);
  for (auto& b : pool) b = static_cast<std::uint8_t>(rng());
  return pool;
}

TEST(Sha1Batch, EqualLengthBatchesMatchPerChunk) {
  const auto& hasher = hasher_for(HashKind::kSha1);
  std::mt19937_64 rng(0xBA7C01);
  const auto pool = random_pool(rng, 3 * 4096);
  for (const std::size_t len : kBatchLengths) {
    for (std::size_t count = 0; count <= 40; ++count) {
      const auto chunks =
          cut_chunks(pool, count, rng, [len](std::size_t) { return len; });
      expect_batch_matches(hasher, chunks, "len=" + std::to_string(len));
    }
  }
}

TEST(Sha1Batch, MixedLengthBatchesMatchPerChunk) {
  const auto& hasher = hasher_for(HashKind::kSha1);
  std::mt19937_64 rng(0xBA7C02);
  const auto pool = random_pool(rng, 3 * 4096);
  for (int trial = 0; trial < 3; ++trial) {
    for (std::size_t count = 0; count <= 40; ++count) {
      // Mostly the longest length, so lanes fill between the others.
      const auto chunks = cut_chunks(pool, count, rng, [&](std::size_t) {
        return rng() % 3 == 0 ? kBatchLengths[rng() % kBatchLengths.size()]
                              : std::size_t{4096};
      });
      expect_batch_matches(hasher, chunks,
                           "mixed trial=" + std::to_string(trial));
    }
  }
}

TEST(Sha1Batch, OutputSizeMismatchThrows) {
  const std::vector<std::uint8_t> data(64, 7);
  const std::vector<std::span<const std::uint8_t>> chunks(3, data);
  std::vector<Fingerprint> out(2);
  for (const auto kind : {HashKind::kSha1, HashKind::kXx64}) {
    EXPECT_THROW(hasher_for(kind).fingerprint_batch(chunks, out),
                 std::invalid_argument);
  }
}

class BatchMatchesPerChunk : public ::testing::TestWithParam<HashKind> {};

TEST_P(BatchMatchesPerChunk, AnyLengthsAnyCount) {
  const auto& hasher = hasher_for(GetParam());
  std::mt19937_64 rng(0xBA7C03);
  const auto pool = random_pool(rng, 3 * 4096);
  for (std::size_t count = 0; count <= 40; count += 3) {
    const auto chunks = cut_chunks(pool, count, rng, [&](std::size_t) {
      return kBatchLengths[rng() % kBatchLengths.size()];
    });
    expect_batch_matches(hasher, chunks, std::string(to_string(GetParam())));
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, BatchMatchesPerChunk,
                         ::testing::Values(HashKind::kSha1, HashKind::kXx64,
                                           HashKind::kFnv64,
                                           HashKind::kCrc32c));

// local_dedup hashes in one batch and then dedups in chunk order; the
// result must equal hashing and deduping one chunk at a time.
void expect_dedup_matches_reference(const collrep::chunk::Chunker& chunker,
                                    const std::string& what) {
  const auto& hasher = hasher_for(HashKind::kSha1);
  const auto got = collrep::core::local_dedup(chunker, hasher);

  collrep::core::LocalDedupResult ref;
  for (std::size_t i = 0; i < chunker.count(); ++i) {
    const auto bytes = chunker.bytes(i);
    const auto fp = hasher.fingerprint(bytes);
    ref.chunk_fps.push_back(fp);
    ref.total_bytes += bytes.size();
    const auto next = static_cast<std::uint32_t>(ref.unique_chunks.size());
    if (ref.index_of.try_emplace(fp, next).second) {
      ref.unique_chunks.push_back(static_cast<std::uint32_t>(i));
      ref.unique_bytes += bytes.size();
    }
  }
  EXPECT_EQ(got.chunk_fps, ref.chunk_fps) << what;
  EXPECT_EQ(got.unique_chunks, ref.unique_chunks) << what;
  EXPECT_EQ(got.index_of, ref.index_of) << what;
  EXPECT_EQ(got.unique_bytes, ref.unique_bytes) << what;
  EXPECT_EQ(got.total_bytes, ref.total_bytes) << what;
}

TEST(LocalDedup, BatchedHashingMatchesOneAtATimeReference) {
  std::mt19937_64 rng(0xBA7C04);
  // Segments with tails of every kind, and repeated pages so that the
  // dedup pass has duplicates to find (some of them inside one lane
  // group).
  std::vector<std::vector<std::uint8_t>> segments;
  for (const std::size_t size : {std::size_t{40 * 512 + 17}, std::size_t{0},
                                 std::size_t{300}, std::size_t{33 * 4096},
                                 std::size_t{5 * 4096 + 4095}}) {
    auto seg = random_pool(rng, size);
    for (std::size_t off = 4096; off + 4096 <= size; off += 3 * 4096) {
      std::memcpy(seg.data() + off, seg.data(), 4096);
    }
    for (std::size_t off = 512; off + 512 <= size; off += 5 * 512) {
      std::memcpy(seg.data() + off, seg.data(), 512);
    }
    segments.push_back(std::move(seg));
  }
  collrep::chunk::Dataset ds;
  for (const auto& seg : segments) ds.add_segment(seg);

  for (const std::size_t chunk_bytes :
       {std::size_t{64}, std::size_t{512}, std::size_t{4096}}) {
    expect_dedup_matches_reference(collrep::chunk::Chunker(ds, chunk_bytes),
                                   "fixed " + std::to_string(chunk_bytes));
  }
  collrep::chunk::CdcParams params;
  expect_dedup_matches_reference(
      collrep::chunk::Chunker(ds, params.max_bytes,
                              collrep::chunk::content_defined_refs(ds, params)),
      "cdc");
}

// -- Registry ----------------------------------------------------------------

TEST(HashRegistry, AllKindsResolve) {
  for (const auto kind : {HashKind::kSha1, HashKind::kXx64, HashKind::kFnv64,
                          HashKind::kCrc32c}) {
    const auto& hasher = hasher_for(kind);
    EXPECT_EQ(hasher.kind(), kind);
    EXPECT_GT(hasher.modeled_bytes_per_second(), 0.0);
  }
}

TEST(HashRegistry, NamesRoundTrip) {
  for (const auto kind : {HashKind::kSha1, HashKind::kXx64, HashKind::kFnv64,
                          HashKind::kCrc32c}) {
    EXPECT_EQ(parse_hash_kind(to_string(kind)), kind);
  }
  EXPECT_THROW((void)parse_hash_kind("md5"), std::invalid_argument);
}

TEST(HashRegistry, Sha1HasherMatchesRawSha1) {
  const auto data = as_bytes("registry consistency");
  const auto digest = Sha1::digest(data);
  EXPECT_EQ(hasher_for(HashKind::kSha1).fingerprint(data),
            Fingerprint{std::span<const std::uint8_t>{digest}});
}

TEST(HashRegistry, DifferentKindsDisagree) {
  const auto data = as_bytes("disambiguation");
  EXPECT_NE(hasher_for(HashKind::kSha1).fingerprint(data),
            hasher_for(HashKind::kXx64).fingerprint(data));
}

class HasherDistinguishesInputs
    : public ::testing::TestWithParam<HashKind> {};

TEST_P(HasherDistinguishesInputs, NearbyInputsDiffer) {
  const auto& hasher = hasher_for(GetParam());
  std::vector<std::uint8_t> base(4096, 0x11);
  const auto fp0 = hasher.fingerprint(base);
  for (std::size_t pos : {0u, 1u, 2047u, 4094u, 4095u}) {
    auto copy = base;
    copy[pos] ^= 0x01;
    EXPECT_NE(hasher.fingerprint(copy), fp0) << "pos=" << pos;
  }
  EXPECT_EQ(hasher.fingerprint(base), fp0);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, HasherDistinguishesInputs,
                         ::testing::Values(HashKind::kSha1, HashKind::kXx64,
                                           HashKind::kFnv64,
                                           HashKind::kCrc32c));

}  // namespace
