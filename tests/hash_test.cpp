// Unit tests for the hash substrate: SHA-1 against RFC 3174 / FIPS test
// vectors, XXH64 and CRC-32C against published reference values, FNV-1a
// against its specification constants, and the Fingerprint/registry API.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

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
