// Unit tests for the serialization archive (the Boost.MPI-serialization
// substitute) and the chunk Manifest wire format.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "chunk/manifest.hpp"
#include "hash/fingerprint.hpp"
#include "simmpi/archive.hpp"

namespace {

using namespace collrep;
using simmpi::from_bytes;
using simmpi::IArchive;
using simmpi::OArchive;
using simmpi::to_bytes;

template <class T>
T round_trip(const T& value) {
  return from_bytes<T>(to_bytes(value));
}

TEST(Archive, TrivialTypes) {
  EXPECT_EQ(round_trip(42), 42);
  EXPECT_EQ(round_trip(std::uint64_t{0xDEADBEEFCAFEF00Dull}),
            0xDEADBEEFCAFEF00Dull);
  EXPECT_EQ(round_trip(-7.25), -7.25);
  EXPECT_EQ(round_trip('x'), 'x');
  EXPECT_EQ(round_trip(true), true);
}

TEST(Archive, TrivialStruct) {
  struct Pod {
    int a;
    double b;
    bool operator==(const Pod&) const = default;
  };
  EXPECT_EQ(round_trip(Pod{3, 1.5}), (Pod{3, 1.5}));
}

TEST(Archive, VectorOfTrivials) {
  const std::vector<std::uint32_t> v{1, 2, 3, 0xFFFFFFFF};
  EXPECT_EQ(round_trip(v), v);
  EXPECT_EQ(round_trip(std::vector<std::uint32_t>{}),
            std::vector<std::uint32_t>{});
}

TEST(Archive, VectorOfVectors) {
  const std::vector<std::vector<int>> v{{1, 2}, {}, {3}};
  EXPECT_EQ(round_trip(v), v);
}

TEST(Archive, Strings) {
  EXPECT_EQ(round_trip(std::string{"hello archive"}), "hello archive");
  EXPECT_EQ(round_trip(std::string{}), "");
  const std::string binary{"\x00\x01\xFF", 3};
  EXPECT_EQ(round_trip(binary), binary);
}

TEST(Archive, Pairs) {
  const std::pair<int, std::string> p{7, "seven"};
  EXPECT_EQ(round_trip(p), p);
}

TEST(Archive, Maps) {
  const std::map<int, std::string> m{{1, "one"}, {2, "two"}};
  EXPECT_EQ(round_trip(m), m);
  const std::unordered_map<std::string, int> um{{"a", 1}, {"b", 2}};
  EXPECT_EQ(round_trip(um), um);
}

TEST(Archive, Fingerprints) {
  const auto fp = hash::Fingerprint::from_u64(0xABCDEF);
  EXPECT_EQ(round_trip(fp), fp);
  const std::vector<hash::Fingerprint> v{fp, hash::Fingerprint{}};
  EXPECT_EQ(round_trip(v), v);
}

TEST(Archive, MultipleValuesSequenced) {
  OArchive out;
  out.put(1);
  out.put(std::string{"mid"});
  out.put(2.5);
  IArchive in(out.bytes());
  EXPECT_EQ(in.get<int>(), 1);
  EXPECT_EQ(in.get<std::string>(), "mid");
  EXPECT_EQ(in.get<double>(), 2.5);
  EXPECT_EQ(in.remaining(), 0u);
}

TEST(Archive, TruncatedBufferThrows) {
  const auto bytes = to_bytes(std::uint64_t{1});
  IArchive in(std::span<const std::uint8_t>{bytes.data(), bytes.size() - 1});
  EXPECT_THROW((void)in.get<std::uint64_t>(), std::runtime_error);
}

TEST(Archive, CorruptSizeThrows) {
  OArchive out;
  out.put_size(1u << 30);  // claims a huge vector, provides no elements
  IArchive in(out.bytes());
  EXPECT_THROW((void)in.get<std::vector<std::uint64_t>>(),
               std::runtime_error);
}

// Element counts are checked against the remaining bytes before any
// container is sized from them, for every container kind.
TEST(Archive, CorruptCountsThrowBeforeAllocating) {
  OArchive out;
  out.put_size(std::uint64_t{1} << 40);
  const auto bytes = out.bytes();
  EXPECT_THROW((void)from_bytes<std::string>(bytes), std::runtime_error);
  EXPECT_THROW((void)from_bytes<std::vector<std::vector<int>>>(bytes),
               std::runtime_error);
  using Map = std::map<int, std::string>;
  EXPECT_THROW((void)from_bytes<Map>(bytes), std::runtime_error);
  using Pairs = std::vector<std::pair<std::uint64_t, std::string>>;
  EXPECT_THROW((void)from_bytes<Pairs>(bytes), std::runtime_error);
  // A count the payload does hold still decodes.
  const std::vector<std::string> strings{"", "a", "bc"};
  EXPECT_EQ(round_trip(strings), strings);
}

TEST(Archive, ManifestRoundTrip) {
  chunk::Manifest m;
  m.owner_rank = 11;
  m.epoch = 42;
  m.segment_sizes = {4096, 1024};
  m.entries = {{hash::Fingerprint::from_u64(1), 256},
               {hash::Fingerprint::from_u64(2), 128}};
  const auto got = round_trip(m);
  EXPECT_EQ(got.owner_rank, 11);
  EXPECT_EQ(got.epoch, 42u);
  EXPECT_EQ(got.segment_sizes, m.segment_sizes);
  ASSERT_EQ(got.entries.size(), 2u);
  EXPECT_EQ(got.entries[0].fp, m.entries[0].fp);
  EXPECT_EQ(got.entries[1].length, 128u);
  EXPECT_EQ(got.total_bytes(), 5120u);
}

TEST(Archive, ManifestWireBytesTracksEntryCount) {
  chunk::Manifest small;
  small.entries.resize(1);
  chunk::Manifest large;
  large.entries.resize(100);
  EXPECT_GT(chunk::manifest_wire_bytes(large),
            chunk::manifest_wire_bytes(small));
}

}  // namespace
