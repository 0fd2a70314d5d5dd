// Deterministic byte-mutation fuzz suite for every wire type a rank
// decodes from a peer (ctest label: fuzz): BoundedFpSet, chunk::Manifest,
// ReplicaHealthSet, and the archive's vector, string, map and pair
// primitives.  Each seed object is serialized, then mutated step by step;
// every mutant must either load and pass its invariant checks, or throw
// std::runtime_error.  Anything else — a crash, a sanitizer report, or an
// allocation sized from an unchecked count (bad_alloc, length_error) —
// fails.  tier1.sh runs the fuzz label under ASan/UBSan.
//
// Everything is seeded from fixed constants, so a failure reproduces
// exactly from the (type, seed, round) triple in the assertion message.
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <map>
#include <string>
#include <typeinfo>
#include <unordered_map>
#include <utility>
#include <vector>

#include "chunk/manifest.hpp"
#include "core/fingerprint_set.hpp"
#include "core/repair.hpp"
#include "hash/fingerprint.hpp"
#include "simmpi/archive.hpp"

namespace {

using namespace collrep;
using Bytes = std::vector<std::uint8_t>;

// xorshift64*, the scheme of the collcheck fuzz harness.
struct Rng {
  std::uint64_t state;
  explicit Rng(std::uint64_t seed) : state(seed | 1) {}
  std::uint64_t next() {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return state * 0x2545F4914F6CDD1DULL;
  }
  std::size_t below(std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(next() % n);
  }
};

// One mutation step: flip a bit, overwrite a byte with a boundary value,
// insert, delete, duplicate a span, truncate, or plant a large
// little-endian u64 (where a count or size header may sit).
Bytes mutate(Bytes b, Rng& rng) {
  if (b.empty()) return Bytes(1 + rng.below(8), 0xFF);
  switch (rng.below(7)) {
    case 0:
      b[rng.below(b.size())] ^= static_cast<std::uint8_t>(1u << rng.below(8));
      break;
    case 1: {
      static constexpr std::uint8_t kEdges[] = {0x00, 0x01, 0x7F, 0x80, 0xFF};
      b[rng.below(b.size())] = kEdges[rng.below(std::size(kEdges))];
      break;
    }
    case 2:
      b.insert(b.begin() + static_cast<std::ptrdiff_t>(rng.below(b.size() + 1)),
               static_cast<std::uint8_t>(rng.next()));
      break;
    case 3: {
      const std::size_t at = rng.below(b.size());
      const std::size_t n = std::min<std::size_t>(1 + rng.below(8), b.size() - at);
      b.erase(b.begin() + static_cast<std::ptrdiff_t>(at),
              b.begin() + static_cast<std::ptrdiff_t>(at + n));
      break;
    }
    case 4: {
      const std::size_t at = rng.below(b.size());
      const std::size_t n =
          1 + rng.below(std::min<std::size_t>(32, b.size() - at));
      const Bytes span(b.begin() + static_cast<std::ptrdiff_t>(at),
                       b.begin() + static_cast<std::ptrdiff_t>(at + n));
      b.insert(b.begin() + static_cast<std::ptrdiff_t>(rng.below(b.size() + 1)),
               span.begin(), span.end());
      break;
    }
    case 5:
      b.resize(rng.below(b.size() + 1));
      break;
    default: {
      static constexpr std::uint64_t kCounts[] = {
          1ull << 62, ~0ull, 0xFFFFFFFFull, 1ull << 32, 1ull << 20};
      const std::uint64_t v = kCounts[rng.below(std::size(kCounts))];
      const std::size_t at = rng.below(b.size());
      for (std::size_t i = 0; i < 8 && at + i < b.size(); ++i) {
        b[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
      }
      break;
    }
  }
  return b;
}

enum class Outcome { kLoaded, kRejected, kWrongError };

// Loads `bytes` as T; a value that loads must satisfy `check`.  Anything
// but a clean load or a std::runtime_error records a failure.
template <class T, class Check>
Outcome load_or_throw(const Bytes& bytes, Check check,
                      const std::string& where) {
  try {
    const T value = simmpi::from_bytes<T>(bytes);
    EXPECT_TRUE(check(value)) << where << ": loaded value fails its checks";
    return Outcome::kLoaded;
  } catch (const std::runtime_error&) {
    return Outcome::kRejected;
  } catch (const std::exception& e) {
    ADD_FAILURE() << where << ": threw " << typeid(e).name() << " ("
                  << e.what() << ") instead of std::runtime_error";
    return Outcome::kWrongError;
  }
}

constexpr int kRounds = 1500;

// Random-walks mutations from each seed, restarting from the seed now and
// then so the walk keeps hitting near-valid encodings.  Some mutants must
// load, so the checks on loaded values are exercised too.
template <class T, class Check>
void fuzz(const char* type, const std::vector<T>& seeds, std::uint64_t salt,
          Check check) {
  int loaded = 0;
  for (std::size_t s = 0; s < seeds.size(); ++s) {
    const Bytes valid = simmpi::to_bytes(seeds[s]);
    ASSERT_EQ(load_or_throw<T>(valid, check, std::string(type) + " seed"),
              Outcome::kLoaded);
    Rng rng(salt + s);
    Bytes bytes = valid;
    for (int round = 0; round < kRounds; ++round) {
      bytes = mutate(std::move(bytes), rng);
      const std::string where = std::string(type) + " seed " +
                                std::to_string(s) + " round " +
                                std::to_string(round);
      const Outcome outcome = load_or_throw<T>(bytes, check, where);
      ASSERT_NE(outcome, Outcome::kWrongError);
      loaded += outcome == Outcome::kLoaded ? 1 : 0;
      if (round % 23 == 22) bytes = valid;
    }
  }
  EXPECT_GT(loaded, 0) << type << ": no mutant loaded";
}

// A value that loads re-encodes to bytes that load back to an equal value.
template <class T>
bool round_trips(const T& value) {
  return simmpi::from_bytes<T>(simmpi::to_bytes(value)) == value;
}

hash::Fingerprint fp_of(std::uint64_t v) {
  hash::Fingerprint fp = hash::Fingerprint::from_u64(v * 0x9E3779B97F4A7C15ULL);
  fp.bytes()[19] = static_cast<std::uint8_t>(v);  // use the full width
  return fp;
}

TEST(WireFuzz, BoundedFpSet) {
  std::vector<core::BoundedFpSet> seeds;
  seeds.emplace_back(8, 2, 3);  // empty
  for (const int nranks : {4, 9}) {
    // Overlapping per-rank leaves, merged: shared fingerprints get several
    // designated ranks and frequencies above one.
    std::vector<core::BoundedFpSet> leaves;
    for (int rank = 1; rank < nranks; ++rank) {
      core::BoundedFpSet leaf(24, 3, nranks);
      for (std::uint64_t i = 0; i < 10; ++i) {
        leaf.add_local(fp_of(i + 3 * static_cast<std::uint64_t>(rank)), rank);
      }
      leaf.enforce_f();
      leaves.push_back(std::move(leaf));
    }
    core::BoundedFpSet s(24, 3, nranks);
    (void)s.merge_many(std::move(leaves));
    seeds.push_back(std::move(s));
  }
  fuzz("BoundedFpSet", seeds, 0xF00D0001, [](const core::BoundedFpSet& s) {
    return s.check_invariants() &&
           simmpi::to_bytes(simmpi::from_bytes<core::BoundedFpSet>(
               simmpi::to_bytes(s))) == simmpi::to_bytes(s);
  });
}

TEST(WireFuzz, Manifest) {
  std::vector<chunk::Manifest> seeds(1);  // empty
  chunk::Manifest m;
  m.owner_rank = 5;
  m.epoch = 3;
  m.segment_sizes = {4096, 0, 700};
  m.entries = {{fp_of(1), 4096}, {fp_of(2), 512}, {fp_of(1), 188}};
  seeds.push_back(m);
  fuzz("Manifest", seeds, 0xF00D0002,
       [](const chunk::Manifest& loaded) { return loaded.check_invariants(); });
}

TEST(WireFuzz, ReplicaHealthSet) {
  std::vector<core::ReplicaHealthSet> seeds{core::ReplicaHealthSet(2)};
  core::ReplicaHealthSet h(3);
  for (int rank = 0; rank < 4; ++rank) {
    core::ReplicaHealthSet mine(3);
    for (std::uint64_t i = 0; i < 6; ++i) {
      if ((i + static_cast<std::uint64_t>(rank)) % 3 != 0) {
        mine.add_local(fp_of(i), 128, rank);
      }
    }
    (void)h.merge_from(std::move(mine));
  }
  seeds.push_back(std::move(h));
  fuzz("ReplicaHealthSet", seeds, 0xF00D0003,
       [](const core::ReplicaHealthSet& s) { return s.check_invariants(); });
}

TEST(WireFuzz, ArchiveVectorsAndStrings) {
  using Words = std::vector<std::uint32_t>;
  fuzz("vector<u32>", std::vector<Words>{{}, {1, 2, 3, 0xFFFFFFFFu}},
       0xF00D0004, round_trips<Words>);
  using Strings = std::vector<std::string>;
  fuzz("vector<string>", std::vector<Strings>{{}, {"", "a", "bc", "defgh"}},
       0xF00D0005, round_trips<Strings>);
  using Nested = std::vector<std::vector<std::uint64_t>>;
  fuzz("vector<vector<u64>>", std::vector<Nested>{{{}, {7}, {1, 2}}},
       0xF00D0006, round_trips<Nested>);
  fuzz("string", std::vector<std::string>{"", "collective replication"},
       0xF00D0007, round_trips<std::string>);
}

TEST(WireFuzz, ArchiveMapsAndPairs) {
  using Ordered = std::map<std::uint64_t, std::string>;
  fuzz("map<u64,string>", std::vector<Ordered>{{}, {{1, "x"}, {9, "yz"}}},
       0xF00D0008, round_trips<Ordered>);
  using Hashed = std::unordered_map<std::string, std::vector<std::uint8_t>>;
  fuzz("unordered_map<string,bytes>",
       std::vector<Hashed>{{{"a", {1, 2}}, {"bcd", {}}}}, 0xF00D0009,
       round_trips<Hashed>);
  using Pair = std::pair<std::uint64_t, std::vector<std::pair<std::int32_t,
                                                              std::string>>>;
  fuzz("pair<u64,vector<pair<i32,string>>>",
       std::vector<Pair>{{42, {{-1, "neg"}, {3, ""}}}}, 0xF00D000A,
       round_trips<Pair>);
}

}  // namespace
