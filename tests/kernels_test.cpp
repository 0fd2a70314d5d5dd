// Differential tests for the dispatched data-plane kernels (ctest label
// `kernels`): every SIMD variant the CPU can run is checked against the
// always-compiled scalar reference on randomized inputs, including
// unaligned, short, and empty buffers (and, for the 16-lane SHA-1,
// aliased lanes arbitrarily far apart).  The CDC skip-ahead path is checked
// for cut-point identity against the reference loop, and the flat
// BoundedFpSet's k-way merge is checked against a map-based reference
// model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <map>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "chunk/cdc.hpp"
#include "core/fingerprint_set.hpp"
#include "hash/fingerprint.hpp"
#include "kernels/kernels.hpp"
#include "simmpi/archive.hpp"

namespace {

using namespace collrep;

std::vector<std::uint8_t> random_bytes(std::mt19937_64& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

// Sizes chosen to straddle every vector width and tail path: empty, single
// byte, around 16/32/64-byte boundaries, and a large odd length.
const std::vector<std::size_t> kSizes = {0,  1,  2,   7,   15,  16,  17,
                                         31, 32, 33,  63,  64,  65,  127,
                                         128, 255, 256, 1000, 4097};

// ---------------------------------------------------------------------------
// GF(256)
// ---------------------------------------------------------------------------

TEST(KernelsGf, VariantsMatchScalarRandomized) {
  const auto variants = kernels::gf_variants();
  ASSERT_FALSE(variants.empty());
  ASSERT_STREQ(variants[0].name, "scalar");
  ASSERT_TRUE(variants[0].available);

  std::mt19937_64 rng(0xC0FFEE01);
  for (const std::size_t size : kSizes) {
    for (const std::size_t offset : {std::size_t{0}, std::size_t{1},
                                     std::size_t{3}}) {
      // Slack so every (offset, size) view stays in bounds and unaligned.
      const auto in_buf = random_bytes(rng, size + 8);
      const auto out_init = random_bytes(rng, size + 8);
      const std::uint8_t coeffs[] = {0, 1, 2, static_cast<std::uint8_t>(rng()),
                                     static_cast<std::uint8_t>(rng()), 255};
      for (const std::uint8_t coeff : coeffs) {
        std::vector<std::uint8_t> expect_add = out_init;
        std::vector<std::uint8_t> expect_mul = out_init;
        variants[0].mul_add(expect_add.data() + offset, in_buf.data() + offset,
                            size, coeff);
        variants[0].mul(expect_mul.data() + offset, in_buf.data() + offset,
                        size, coeff);
        for (const auto& v : variants.subspan(1)) {
          if (!v.available) continue;
          std::vector<std::uint8_t> got = out_init;
          v.mul_add(got.data() + offset, in_buf.data() + offset, size, coeff);
          EXPECT_EQ(got, expect_add)
              << v.name << " mul_add size=" << size << " off=" << offset
              << " coeff=" << static_cast<int>(coeff);
          got = out_init;
          v.mul(got.data() + offset, in_buf.data() + offset, size, coeff);
          EXPECT_EQ(got, expect_mul)
              << v.name << " mul size=" << size << " off=" << offset
              << " coeff=" << static_cast<int>(coeff);
        }
      }
    }
  }
}

TEST(KernelsGf, ScalarMatchesFieldAxioms) {
  // coeff 0 zeroes (mul) / leaves untouched (mul_add); coeff 1 copies/xors.
  std::mt19937_64 rng(0xC0FFEE02);
  const auto in = random_bytes(rng, 257);
  auto out = random_bytes(rng, 257);
  const auto saved = out;
  const auto& scalar = kernels::gf_variants()[0];

  scalar.mul_add(out.data(), in.data(), out.size(), 0);
  EXPECT_EQ(out, saved);
  scalar.mul(out.data(), in.data(), out.size(), 0);
  EXPECT_TRUE(std::all_of(out.begin(), out.end(),
                          [](std::uint8_t b) { return b == 0; }));
  scalar.mul(out.data(), in.data(), out.size(), 1);
  EXPECT_EQ(out, in);
}

// ---------------------------------------------------------------------------
// CRC-32C
// ---------------------------------------------------------------------------

TEST(KernelsCrc32c, VariantsMatchScalarRandomized) {
  const auto variants = kernels::crc32c_variants();
  ASSERT_FALSE(variants.empty());
  ASSERT_STREQ(variants[0].name, "scalar");

  std::mt19937_64 rng(0xC0FFEE03);
  for (const std::size_t size : kSizes) {
    for (const std::size_t offset : {std::size_t{0}, std::size_t{1},
                                     std::size_t{5}}) {
      const auto buf = random_bytes(rng, size + 8);
      const std::uint32_t seeds[] = {0, 0xFFFFFFFFu,
                                     static_cast<std::uint32_t>(rng())};
      for (const std::uint32_t seed : seeds) {
        const std::uint32_t expect =
            variants[0].fn(seed, buf.data() + offset, size);
        for (const auto& v : variants.subspan(1)) {
          if (!v.available) continue;
          EXPECT_EQ(v.fn(seed, buf.data() + offset, size), expect)
              << v.name << " size=" << size << " off=" << offset;
        }
      }
    }
  }
}

TEST(KernelsCrc32c, KnownAnswer) {
  // iSCSI check value: CRC-32C("123456789") = 0xE3069283 for every variant.
  const std::uint8_t msg[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  for (const auto& v : kernels::crc32c_variants()) {
    if (!v.available) continue;
    EXPECT_EQ(~v.fn(~0u, msg, sizeof msg), 0xE3069283u) << v.name;
  }
}

// ---------------------------------------------------------------------------
// SHA-1 compression
// ---------------------------------------------------------------------------

TEST(KernelsSha1, VariantsMatchScalarRandomized) {
  const auto variants = kernels::sha1_variants();
  ASSERT_FALSE(variants.empty());
  ASSERT_STREQ(variants[0].name, "scalar");

  std::mt19937_64 rng(0xC0FFEE04);
  for (const std::size_t nblocks : {std::size_t{1}, std::size_t{2},
                                    std::size_t{3}, std::size_t{7},
                                    std::size_t{16}}) {
    for (const std::size_t offset : {std::size_t{0}, std::size_t{1}}) {
      const auto blocks = random_bytes(rng, nblocks * 64 + 1);
      std::uint32_t init[5];
      for (auto& w : init) w = static_cast<std::uint32_t>(rng());

      std::uint32_t expect[5];
      std::memcpy(expect, init, sizeof expect);
      variants[0].fn(expect, blocks.data() + offset, nblocks);

      for (const auto& v : variants.subspan(1)) {
        if (!v.available) continue;
        std::uint32_t got[5];
        std::memcpy(got, init, sizeof got);
        v.fn(got, blocks.data() + offset, nblocks);
        for (int i = 0; i < 5; ++i) {
          EXPECT_EQ(got[i], expect[i])
              << v.name << " nblocks=" << nblocks << " off=" << offset
              << " word=" << i;
        }
      }
    }
  }
}

TEST(KernelsSha1, BlockPipeliningMatchesBlockAtATime) {
  // One multi-block call must equal a chain of single-block calls.
  std::mt19937_64 rng(0xC0FFEE05);
  const auto blocks = random_bytes(rng, 9 * 64);
  for (const auto& v : kernels::sha1_variants()) {
    if (!v.available) continue;
    std::uint32_t batched[5] = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu,
                                0x10325476u, 0xC3D2E1F0u};
    std::uint32_t stepped[5];
    std::memcpy(stepped, batched, sizeof stepped);
    v.fn(batched, blocks.data(), 9);
    for (std::size_t b = 0; b < 9; ++b) {
      v.fn(stepped, blocks.data() + b * 64, 1);
    }
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(batched[i], stepped[i]) << v.name << " word=" << i;
    }
  }
}

// ---------------------------------------------------------------------------
// SHA-1, 16 lanes
// ---------------------------------------------------------------------------

// Lane inputs for one differential trial: each lane reads `nblocks`
// blocks from its own pointer.  Lanes alternate between a heap buffer
// and a stack buffer (gigabytes apart on a typical address-space layout),
// start at odd offsets, and every fifth lane repeats an earlier lane's
// pointer.
struct LaneInput {
  std::vector<std::vector<std::uint8_t>> heap;
  const std::uint8_t* ptrs[kernels::kSha1Lanes] = {};
  std::uint32_t state[5][kernels::kSha1Lanes] = {};
};

constexpr std::size_t kMaxLaneBlocks = 9;

void fill_lanes(std::mt19937_64& rng, std::size_t nblocks,
                std::uint8_t* stack_buf, std::size_t stack_lane_bytes,
                LaneInput& in) {
  for (std::size_t l = 0; l < kernels::kSha1Lanes; ++l) {
    const std::size_t offset = l % 8;
    if (l % 5 == 4) {
      in.ptrs[l] = in.ptrs[l - 3];
    } else if (l % 2 == 0) {
      in.heap.push_back(random_bytes(rng, nblocks * 64 + 8));
      in.ptrs[l] = in.heap.back().data() + offset;
    } else {
      std::uint8_t* lane = stack_buf + l * stack_lane_bytes;
      for (std::size_t i = 0; i < nblocks * 64 + 8; ++i) {
        lane[i] = static_cast<std::uint8_t>(rng());
      }
      in.ptrs[l] = lane + offset;
    }
    for (auto& row : in.state) row[l] = static_cast<std::uint32_t>(rng());
  }
}

TEST(KernelsSha1x16, ScalarLanesMatchSingleStreamScalar) {
  const auto variants = kernels::sha1_x16_variants();
  ASSERT_FALSE(variants.empty());
  ASSERT_STREQ(variants[0].name, "scalar");
  const auto single = kernels::sha1_variants()[0].fn;

  constexpr std::size_t kLaneBytes = kMaxLaneBlocks * 64 + 8;
  std::uint8_t stack_buf[kernels::kSha1Lanes * kLaneBytes];
  std::mt19937_64 rng(0xC0FFEE06);
  for (std::size_t nblocks = 0; nblocks <= 3; ++nblocks) {
    LaneInput in;
    fill_lanes(rng, nblocks, stack_buf, kLaneBytes, in);
    std::uint32_t lanes[5][kernels::kSha1Lanes];
    std::memcpy(lanes, in.state, sizeof lanes);
    variants[0].fn(lanes, in.ptrs, nblocks);
    for (std::size_t l = 0; l < kernels::kSha1Lanes; ++l) {
      std::uint32_t one[5];
      for (int w = 0; w < 5; ++w) one[w] = in.state[w][l];
      single(one, in.ptrs[l], nblocks);
      for (int w = 0; w < 5; ++w) {
        EXPECT_EQ(lanes[w][l], one[w])
            << "nblocks=" << nblocks << " lane=" << l << " word=" << w;
      }
    }
  }
}

TEST(KernelsSha1x16, VariantsMatchScalarRandomized) {
  const auto variants = kernels::sha1_x16_variants();
  ASSERT_FALSE(variants.empty());
  ASSERT_STREQ(variants[0].name, "scalar");
  std::string runnable;
  std::string unavailable;
  for (const auto& v : variants.subspan(1)) {
    (v.available ? runnable : unavailable) += std::string(" ") + v.name;
  }
  if (runnable.empty()) {
    GTEST_SKIP() << "sha1_x16 SIMD variant(s) not runnable on this CPU:"
                 << unavailable;
  }

  // The stack buffer stays in this frame while the heap lanes come from
  // the allocator, so some lane pairs are far more than 4 GiB apart.
  constexpr std::size_t kLaneBytes = kMaxLaneBlocks * 64 + 8;
  std::uint8_t stack_buf[kernels::kSha1Lanes * kLaneBytes];
  std::mt19937_64 rng(0xC0FFEE07);
  for (int trial = 0; trial < 4; ++trial) {
    for (std::size_t nblocks = 1; nblocks <= kMaxLaneBlocks; ++nblocks) {
      LaneInput in;
      fill_lanes(rng, nblocks, stack_buf, kLaneBytes, in);
      std::uint32_t expect[5][kernels::kSha1Lanes];
      std::memcpy(expect, in.state, sizeof expect);
      variants[0].fn(expect, in.ptrs, nblocks);
      for (const auto& v : variants.subspan(1)) {
        if (!v.available) continue;
        std::uint32_t got[5][kernels::kSha1Lanes];
        std::memcpy(got, in.state, sizeof got);
        v.fn(got, in.ptrs, nblocks);
        for (int w = 0; w < 5; ++w) {
          for (std::size_t l = 0; l < kernels::kSha1Lanes; ++l) {
            EXPECT_EQ(got[w][l], expect[w][l])
                << v.name << " trial=" << trial << " nblocks=" << nblocks
                << " lane=" << l << " word=" << w;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// CDC skip-ahead
// ---------------------------------------------------------------------------

TEST(KernelsCdc, SkipAheadIsCutPointIdentical) {
  struct Geometry {
    std::size_t min, avg, max;
  };
  const Geometry geoms[] = {{256, 1024, 4096}, {64, 256, 512}, {1, 8, 16},
                            {16, 16, 16},      {1, 1, 4},      {100, 128, 129}};
  std::mt19937_64 rng(0xC0FFEE06);
  for (const auto& g : geoms) {
    for (int trial = 0; trial < 4; ++trial) {
      // Mixed-entropy data (random + zero runs) across several segments so
      // both content cuts and max_bytes forced cuts occur.
      std::vector<std::vector<std::uint8_t>> segs;
      chunk::Dataset data;
      for (int s = 0; s < 3; ++s) {
        const std::size_t n = rng() % (g.max * 8 + 7);
        auto seg = random_bytes(rng, n);
        if (n > 16 && trial % 2 == 0) {
          std::fill(seg.begin() + static_cast<std::ptrdiff_t>(n / 3),
                    seg.begin() + static_cast<std::ptrdiff_t>(2 * n / 3), 0);
        }
        segs.push_back(std::move(seg));
        data.add_segment(segs.back());
      }

      chunk::CdcParams params;
      params.min_bytes = g.min;
      params.avg_bytes = g.avg;
      params.max_bytes = g.max;
      params.skip_ahead = false;
      const auto reference = chunk::content_defined_refs(data, params);
      params.skip_ahead = true;
      const auto skip = chunk::content_defined_refs(data, params);

      ASSERT_EQ(skip.size(), reference.size())
          << "min=" << g.min << " avg=" << g.avg << " max=" << g.max;
      for (std::size_t i = 0; i < skip.size(); ++i) {
        EXPECT_EQ(skip[i].segment, reference[i].segment) << i;
        EXPECT_EQ(skip[i].offset, reference[i].offset) << i;
        EXPECT_EQ(skip[i].length, reference[i].length) << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// BoundedFpSet vs map-based reference model
// ---------------------------------------------------------------------------

// Reference model: the pre-flat map-backed implementation's semantics,
// transcribed over std::map.  Shares nothing with the production code.
struct RefModel {
  std::uint32_t f_cap;
  int k;
  std::map<hash::Fingerprint, std::pair<std::uint32_t,
                                        std::vector<std::int32_t>>> entries;
  std::vector<std::uint32_t> load;

  RefModel(std::uint32_t f, int kk, int nranks)
      : f_cap(f), k(kk), load(static_cast<std::size_t>(nranks), 0) {}

  void add_local(const hash::Fingerprint& fp, int rank) {
    entries[fp] = {1u, {rank}};
    ++load[static_cast<std::size_t>(rank)];
  }

  void truncate_ranks(std::vector<std::int32_t>& ranks,
                      core::MergeStats& stats) {
    if (ranks.size() <= static_cast<std::size_t>(k)) return;
    std::stable_sort(ranks.begin(), ranks.end(),
                     [&](std::int32_t a, std::int32_t b) {
                       const auto la = load[static_cast<std::size_t>(a)];
                       const auto lb = load[static_cast<std::size_t>(b)];
                       if (la != lb) return la < lb;
                       return a < b;
                     });
    for (std::size_t i = static_cast<std::size_t>(k); i < ranks.size(); ++i) {
      --load[static_cast<std::size_t>(ranks[i])];
      ++stats.ranks_dropped_load;
    }
    ranks.resize(static_cast<std::size_t>(k));
    std::sort(ranks.begin(), ranks.end());
  }

  void truncate_to_f(core::MergeStats& stats) {
    while (entries.size() > f_cap) {
      // Drop the (freq asc, fp desc) worst entry — equivalent to keeping
      // the top F by (freq desc, fp asc).
      auto victim = entries.begin();
      for (auto it = entries.begin(); it != entries.end(); ++it) {
        const bool worse = it->second.first < victim->second.first ||
                           (it->second.first == victim->second.first &&
                            victim->first < it->first);
        if (worse) victim = it;
      }
      for (const std::int32_t r : victim->second.second) {
        --load[static_cast<std::size_t>(r)];
      }
      entries.erase(victim);
      ++stats.entries_dropped_f;
    }
  }

  // HMERGE over any number of children: designation loads are summed
  // first; then every fingerprint present in more than one input (this
  // model included) gets its frequencies summed and its rank lists
  // unioned and K-truncated, in ascending fingerprint order; the F bound
  // is enforced last.
  core::MergeStats merge_many(std::vector<RefModel>&& others) {
    core::MergeStats stats;
    if (others.empty()) return stats;
    struct Union {
      std::uint32_t freq = 0;
      std::vector<std::int32_t> ranks;
      int inputs = 0;
    };
    std::map<hash::Fingerprint, Union> all;
    const auto absorb = [&all](const RefModel& m) {
      for (const auto& [fp, e] : m.entries) {
        Union& u = all[fp];
        u.freq += e.first;
        u.ranks.insert(u.ranks.end(), e.second.begin(), e.second.end());
        ++u.inputs;
      }
    };
    absorb(*this);
    for (const RefModel& o : others) {
      stats.entries_scanned += o.entries.size();
      for (std::size_t i = 0; i < load.size(); ++i) load[i] += o.load[i];
      absorb(o);
    }
    entries.clear();
    for (auto& [fp, u] : all) {
      if (u.inputs > 1) {
        std::sort(u.ranks.begin(), u.ranks.end());
        u.ranks.erase(std::unique(u.ranks.begin(), u.ranks.end()),
                      u.ranks.end());
        truncate_ranks(u.ranks, stats);
      }
      entries.emplace(fp, std::make_pair(u.freq, std::move(u.ranks)));
    }
    truncate_to_f(stats);
    return stats;
  }

  std::size_t prune_singletons() {
    std::size_t removed = 0;
    for (auto it = entries.begin(); it != entries.end();) {
      if (it->second.first <= 1) {
        for (const std::int32_t r : it->second.second) {
          --load[static_cast<std::size_t>(r)];
        }
        it = entries.erase(it);
        ++removed;
      } else {
        ++it;
      }
    }
    return removed;
  }
};

void expect_equivalent(const core::BoundedFpSet& flat, const RefModel& ref) {
  ASSERT_EQ(flat.size(), ref.entries.size());
  auto it = ref.entries.begin();
  for (const auto& e : flat.entries()) {  // both fp-ascending
    ASSERT_NE(it, ref.entries.end());
    EXPECT_EQ(e.fp, it->first);
    EXPECT_EQ(e.freq, it->second.first);
    const auto r = flat.ranks(e);
    EXPECT_EQ(std::vector<std::int32_t>(r.begin(), r.end()), it->second.second)
        << e.fp.hex();
    ++it;
  }
  const auto load = flat.rank_load();
  EXPECT_EQ(std::vector<std::uint32_t>(load.begin(), load.end()), ref.load);
  EXPECT_TRUE(flat.check_invariants());
}

TEST(KernelsFpSet, FlatMergeMatchesMapReferenceRandomized) {
  // merge_many against the reference k-way merge at every fan-in from 1
  // to 5.  The F and K bounds bind in most trials; every fourth trial has
  // them slack.
  std::mt19937_64 rng(0xC0FFEE07);
  for (int trial = 0; trial < 30; ++trial) {
    for (std::size_t fan_in = 1; fan_in <= 5; ++fan_in) {
      const bool slack = trial % 4 == 0;
      const int nranks = 2 + static_cast<int>(rng() % 7);
      const int k = slack ? nranks : 1 + static_cast<int>(rng() % 4);
      const std::uint32_t f =
          slack ? 4096 : 1 + static_cast<std::uint32_t>(rng() % 24);
      const std::uint64_t universe = 1 + rng() % 40;

      std::vector<core::BoundedFpSet> flat_leaves;
      std::vector<RefModel> ref_leaves;
      for (int rank = 0; rank < nranks; ++rank) {
        core::BoundedFpSet leaf_flat(f, k, nranks);
        RefModel leaf_ref(f, k, nranks);
        // A random subset of the fingerprint universe on this rank.
        for (std::uint64_t id = 0; id < universe; ++id) {
          if (rng() % 2 == 0) continue;
          leaf_flat.add_local(hash::Fingerprint::from_u64(id * 0x9E3779B9u),
                              rank);
          leaf_ref.add_local(hash::Fingerprint::from_u64(id * 0x9E3779B9u),
                             rank);
        }
        leaf_flat.enforce_f();
        core::MergeStats ref_enforce;
        leaf_ref.truncate_to_f(ref_enforce);
        flat_leaves.push_back(std::move(leaf_flat));
        ref_leaves.push_back(std::move(leaf_ref));
      }

      core::BoundedFpSet flat = std::move(flat_leaves[0]);
      RefModel ref = std::move(ref_leaves[0]);
      for (std::size_t next = 1; next < flat_leaves.size(); next += fan_in) {
        const std::size_t end = std::min(next + fan_in, flat_leaves.size());
        std::vector<core::BoundedFpSet> flat_children;
        std::vector<RefModel> ref_children;
        for (std::size_t c = next; c < end; ++c) {
          flat_children.push_back(std::move(flat_leaves[c]));
          ref_children.push_back(std::move(ref_leaves[c]));
        }
        const auto fs = flat.merge_many(std::move(flat_children));
        const auto rs = ref.merge_many(std::move(ref_children));
        EXPECT_EQ(fs.entries_scanned, rs.entries_scanned)
            << trial << " fan-in " << fan_in;
        EXPECT_EQ(fs.entries_dropped_f, rs.entries_dropped_f)
            << trial << " fan-in " << fan_in;
        EXPECT_EQ(fs.ranks_dropped_load, rs.ranks_dropped_load)
            << trial << " fan-in " << fan_in;
        expect_equivalent(flat, ref);
      }

      EXPECT_EQ(flat.prune_singletons(), ref.prune_singletons()) << trial;
      expect_equivalent(flat, ref);
    }
  }
}

TEST(KernelsFpSet, ArchiveRoundTripPreservesContentAndIsCanonical) {
  std::mt19937_64 rng(0xC0FFEE08);
  for (int trial = 0; trial < 10; ++trial) {
    const int nranks = 2 + static_cast<int>(rng() % 6);
    core::BoundedFpSet acc(64, 3, nranks);
    for (int rank = 0; rank < nranks; ++rank) {
      core::BoundedFpSet leaf(64, 3, nranks);
      for (int i = 0; i < 20; ++i) {
        // Mixed fingerprints: u64-derived (12 trailing zero bytes) and
        // full-width random digests.
        hash::Fingerprint fp;
        if (rng() % 2 == 0) {
          fp = hash::Fingerprint::from_u64(rng() % 32);
        } else {
          std::uint8_t digest[20];
          for (auto& b : digest) b = static_cast<std::uint8_t>(rng() % 4);
          fp = hash::Fingerprint(digest);
        }
        if (leaf.find(fp) == nullptr) leaf.add_local(fp, rank);
      }
      leaf.enforce_f();
      if (rank == 0) {
        acc = std::move(leaf);
      } else {
        acc.merge_many({std::move(leaf)});
      }
    }

    const auto bytes = simmpi::to_bytes(acc);
    const auto back = simmpi::from_bytes<core::BoundedFpSet>(bytes);
    ASSERT_EQ(back.size(), acc.size());
    EXPECT_EQ(back.f_cap(), acc.f_cap());
    EXPECT_EQ(back.k(), acc.k());
    EXPECT_TRUE(back.check_invariants());
    const auto want = acc.entries();
    const auto got = back.entries();
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].fp, want[i].fp);
      EXPECT_EQ(got[i].freq, want[i].freq);
      const auto ra = acc.ranks(want[i]);
      const auto rb = back.ranks(got[i]);
      EXPECT_EQ(std::vector<std::int32_t>(rb.begin(), rb.end()),
                std::vector<std::int32_t>(ra.begin(), ra.end()));
    }
    // Canonical form: re-serializing the loaded set reproduces the bytes.
    EXPECT_EQ(simmpi::to_bytes(back), bytes);
  }
}

TEST(KernelsFpSet, DeltaArchiveIsCompact) {
  // 1000 u64-derived fingerprints: delta coding must beat the naive
  // 20-bytes-per-fingerprint encoding by a wide margin.
  core::BoundedFpSet s(2048, 3, 4);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    s.add_local(hash::Fingerprint::from_u64(i * 0x9E3779B97F4A7C15ull),
                static_cast<int>(i % 4));
  }
  s.enforce_f();
  const auto bytes = simmpi::to_bytes(s);
  // Old format: >= 20 (fp) + 4 (freq) + 2 + 4 (rank) = 30 bytes/entry.
  EXPECT_LT(bytes.size(), 1000 * 20);
}

hash::Fingerprint fp_with_prefix(std::uint64_t prefix, std::uint8_t tail) {
  std::uint8_t digest[20] = {};
  for (int i = 0; i < 8; ++i) {
    digest[i] = static_cast<std::uint8_t>(prefix >> (56 - 8 * i));
  }
  digest[19] = tail;
  return hash::Fingerprint(digest);
}

TEST(KernelsFpSet, PrefixCollisionsFallBackAndMergeCorrectly) {
  // Fingerprints sharing their first 8 bytes, within one input or across
  // inputs, must merge by the full fingerprint and match the reference
  // model.
  struct Case {
    bool collide_within;  // both colliding fps on one side
    const char* label;
  };
  for (const Case c : {Case{true, "within"}, Case{false, "across"}}) {
    const int nranks = 4;
    core::BoundedFpSet a(64, 3, nranks);
    core::BoundedFpSet b(64, 3, nranks);
    RefModel ra(64, 3, nranks);
    RefModel rb(64, 3, nranks);
    const auto add = [&](core::BoundedFpSet& s, RefModel& r,
                         const hash::Fingerprint& fp, int rank) {
      s.add_local(fp, rank);
      r.add_local(fp, rank);
    };
    // Distinct-prefix background so the merge has real work.
    for (std::uint64_t i = 0; i < 30; ++i) {
      add(a, ra, fp_with_prefix(i * 11 + 1, 0), 0);
      if (i % 3 != 0) add(b, rb, fp_with_prefix(i * 11 + 1, 0), 1);
      add(b, rb, fp_with_prefix(i * 11 + 5, 0), 1);
    }
    if (c.collide_within) {
      add(a, ra, fp_with_prefix(500, 1), 0);
      add(a, ra, fp_with_prefix(500, 2), 0);
      add(b, rb, fp_with_prefix(500, 2), 1);
    } else {
      // Cross-input-only collision: equal prefixes, unequal digests.
      add(a, ra, fp_with_prefix(500, 1), 0);
      add(b, rb, fp_with_prefix(500, 2), 1);
      // And one genuine cross-input duplicate for contrast.
      add(a, ra, fp_with_prefix(600, 7), 0);
      add(b, rb, fp_with_prefix(600, 7), 1);
    }
    a.enforce_f();
    b.enforce_f();
    const auto fs = a.merge_many({std::move(b)});
    const auto rs = ra.merge_many({std::move(rb)});
    EXPECT_EQ(fs.entries_scanned, rs.entries_scanned) << c.label;
    expect_equivalent(a, ra);
  }
}

TEST(KernelsFpSet, RankListsSaturateAtK) {
  // Every rank holds the same universe: after folding all leaves each
  // fingerprint has nranks holders but only K designated ranks, and the
  // designation load stays balanced by the load-aware truncation.
  const int nranks = 9;
  const int k = 3;
  core::BoundedFpSet acc(128, k, nranks);
  for (int rank = 0; rank < nranks; ++rank) {
    core::BoundedFpSet leaf(128, k, nranks);
    for (std::uint64_t id = 0; id < 50; ++id) {
      leaf.add_local(hash::Fingerprint::from_u64(id * 0x9E3779B9u), rank);
    }
    leaf.enforce_f();
    if (rank == 0) {
      acc = std::move(leaf);
    } else {
      acc.merge_many({std::move(leaf)});
    }
  }
  ASSERT_EQ(acc.size(), 50u);
  for (const auto& e : acc.entries()) {
    EXPECT_EQ(e.freq, static_cast<std::uint32_t>(nranks));
    EXPECT_EQ(e.rank_len, static_cast<std::uint32_t>(k));
  }
  EXPECT_TRUE(acc.check_invariants());
  // Greedy per-merge truncation balances approximately (not ±1): with 150
  // designations over 9 ranks (~16.7 each) the spread must stay small.
  const auto load = acc.rank_load();
  const auto [lo, hi] = std::minmax_element(load.begin(), load.end());
  EXPECT_LE(*hi - *lo, 4u) << "designation load should stay near-balanced";
}

TEST(KernelsFpSet, KwayKeepsBoundsWhenTheyBind) {
  std::mt19937_64 rng(0xC0FFEE0B);
  for (int trial = 0; trial < 10; ++trial) {
    const int nranks = 4 + static_cast<int>(rng() % 5);
    const std::uint32_t f = 1 + static_cast<std::uint32_t>(rng() % 20);
    const int k = 1 + static_cast<int>(rng() % 3);
    std::vector<core::BoundedFpSet> leaves;
    for (int rank = 0; rank < nranks; ++rank) {
      core::BoundedFpSet leaf(f, k, nranks);
      for (std::uint64_t id = 0; id < 40; ++id) {
        if (rng() % 3 == 0) continue;
        leaf.add_local(hash::Fingerprint::from_u64(id * 0x9E3779B9u), rank);
      }
      leaf.enforce_f();
      leaves.push_back(std::move(leaf));
    }
    auto acc = std::move(leaves[0]);
    leaves.erase(leaves.begin());
    acc.merge_many(std::move(leaves));
    EXPECT_LE(acc.size(), f) << trial;
    for (const auto& e : acc.entries()) {
      EXPECT_LE(e.rank_len, static_cast<std::uint32_t>(k)) << trial;
    }
    EXPECT_TRUE(acc.check_invariants()) << trial;
  }
}

TEST(KernelsFpSet, MergeManyWithNoChildrenIsANoop) {
  core::BoundedFpSet s(16, 2, 4);
  s.add_local(hash::Fingerprint::from_u64(7), 0);
  s.enforce_f();
  const auto bytes = simmpi::to_bytes(s);
  const auto stats = s.merge_many({});
  EXPECT_EQ(stats.entries_scanned, 0u);
  EXPECT_EQ(stats.entries_dropped_f, 0u);
  EXPECT_EQ(stats.ranks_dropped_load, 0u);
  EXPECT_EQ(simmpi::to_bytes(s), bytes);
}

TEST(KernelsDispatch, ActiveVariantsAreAvailable) {
  const auto& d = kernels::dispatch();
  ASSERT_NE(d.gf_mul_add, nullptr);
  ASSERT_NE(d.gf_mul, nullptr);
  ASSERT_NE(d.crc32c, nullptr);
  ASSERT_NE(d.sha1_blocks, nullptr);
  ASSERT_NE(d.sha1_x16, nullptr);
  // The dispatched names must correspond to available variants.
  bool gf_ok = false, crc_ok = false, sha_ok = false, x16_ok = false;
  for (const auto& v : kernels::gf_variants()) {
    if (v.available && std::string_view(v.name) == d.gf_name) gf_ok = true;
  }
  for (const auto& v : kernels::crc32c_variants()) {
    if (v.available && std::string_view(v.name) == d.crc32c_name) {
      crc_ok = true;
    }
  }
  for (const auto& v : kernels::sha1_variants()) {
    if (v.available && std::string_view(v.name) == d.sha1_name) sha_ok = true;
  }
  for (const auto& v : kernels::sha1_x16_variants()) {
    if (v.available && std::string_view(v.name) == d.sha1_x16_name) {
      x16_ok = true;
    }
  }
  EXPECT_TRUE(gf_ok) << d.gf_name;
  EXPECT_TRUE(crc_ok) << d.crc32c_name;
  EXPECT_TRUE(sha_ok) << d.sha1_name;
  EXPECT_TRUE(x16_ok) << d.sha1_x16_name;
}

// COLLREP_KERNELS=scalar (ctest runs this suite once more with it set)
// must select every scalar reference, including the 16-lane slot;
// otherwise each slot takes its fastest runnable variant.
TEST(KernelsDispatch, EnvironmentSelectsScalarOrFastest) {
  const auto& d = kernels::dispatch();
  const char* env = std::getenv("COLLREP_KERNELS");
  if (env != nullptr && std::string_view(env) == "scalar") {
    EXPECT_STREQ(d.gf_name, "scalar");
    EXPECT_STREQ(d.crc32c_name, "scalar");
    EXPECT_STREQ(d.sha1_name, "scalar");
    EXPECT_STREQ(d.sha1_x16_name, "scalar");
    EXPECT_TRUE(d.sha1_x16_wins);
    return;
  }
  const auto fastest = [](const auto& variants) {
    std::string_view best;
    for (const auto& v : variants) {
      if (v.available) best = v.name;
    }
    return best;
  };
  EXPECT_EQ(d.sha1_name, fastest(kernels::sha1_variants()));
  EXPECT_EQ(d.sha1_x16_name, fastest(kernels::sha1_x16_variants()));
  // The lanes are used only when a SIMD lane kernel runs here.
  EXPECT_EQ(d.sha1_x16_wins, std::string_view(d.sha1_x16_name) != "scalar");
}

}  // namespace
