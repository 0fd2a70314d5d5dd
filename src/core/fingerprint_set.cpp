#include "core/fingerprint_set.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "simmpi/collectives.hpp"

namespace collrep::core {

namespace {

constexpr std::size_t kFpBytes = hash::Fingerprint::kBytes;

// The 20 fingerprint bytes viewed as one big-endian 160-bit integer,
// split into limbs: two u64 + one u32, most significant first.  Byte-
// lexicographic order == big-endian numeric order, which is exactly the
// order entries are sorted in.
struct FpLimbs {
  std::uint64_t w0;
  std::uint64_t w1;
  std::uint32_t w2;
};

std::uint64_t load_be64(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | p[i];
  return v;
}

std::uint32_t load_be32(const std::uint8_t* p) noexcept {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

void store_be64(std::uint8_t* p, std::uint64_t v) noexcept {
  for (int i = 7; i >= 0; --i) {
    p[i] = static_cast<std::uint8_t>(v);
    v >>= 8;
  }
}

void store_be32(std::uint8_t* p, std::uint32_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

FpLimbs to_limbs(const hash::Fingerprint& fp) noexcept {
  const auto b = fp.bytes();
  return {load_be64(b.data()), load_be64(b.data() + 8),
          load_be32(b.data() + 16)};
}

// delta = a - b over the 160-bit big-endian integers, limb-at-a-time
// with borrow propagation (the byte loop this replaces was a hot spot of
// serialization at large F).
std::array<std::uint8_t, kFpBytes> fp_sub(const hash::Fingerprint& a,
                                          const hash::Fingerprint& b) {
  const FpLimbs la = to_limbs(a);
  const FpLimbs lb = to_limbs(b);
  const std::uint32_t d2 = la.w2 - lb.w2;
  std::uint64_t borrow = la.w2 < lb.w2 ? 1 : 0;
  std::uint64_t d1 = 0;
  std::uint64_t borrow1 = 0;
  borrow1 = __builtin_sub_overflow(la.w1, lb.w1, &d1) ? 1 : 0;
  borrow1 += __builtin_sub_overflow(d1, borrow, &d1) ? 1 : 0;
  const std::uint64_t d0 = la.w0 - lb.w0 - borrow1;
  std::array<std::uint8_t, kFpBytes> delta{};
  store_be64(delta.data(), d0);
  store_be64(delta.data() + 8, d1);
  store_be32(delta.data() + 16, d2);
  return delta;
}

// base += delta (big-endian); returns the carry out of the top limb.
int fp_add(hash::Fingerprint& base,
           const std::array<std::uint8_t, kFpBytes>& delta) {
  const FpLimbs lb = to_limbs(base);
  const std::uint64_t d0 = load_be64(delta.data());
  const std::uint64_t d1 = load_be64(delta.data() + 8);
  const std::uint32_t d2 = load_be32(delta.data() + 16);
  const std::uint32_t s2 = lb.w2 + d2;
  std::uint64_t carry = s2 < lb.w2 ? 1 : 0;
  std::uint64_t s1 = 0;
  std::uint64_t carry1 = 0;
  carry1 = __builtin_add_overflow(lb.w1, d1, &s1) ? 1 : 0;
  carry1 += __builtin_add_overflow(s1, carry, &s1) ? 1 : 0;
  std::uint64_t s0 = 0;
  std::uint64_t carry0 = 0;
  carry0 = __builtin_add_overflow(lb.w0, d0, &s0) ? 1 : 0;
  carry0 += __builtin_add_overflow(s0, carry1, &s0) ? 1 : 0;
  const auto bytes = base.bytes();
  store_be64(bytes.data(), s0);
  store_be64(bytes.data() + 8, s1);
  store_be32(bytes.data() + 16, s2);
  return static_cast<int>(carry0);
}

}  // namespace

BoundedFpSet::BoundedFpSet(std::uint32_t f_cap, int k, int nranks)
    : f_cap_(f_cap), k_(k), rank_load_(static_cast<std::size_t>(nranks), 0) {
  if (f_cap == 0) throw std::invalid_argument("BoundedFpSet: F must be > 0");
  if (k < 1) throw std::invalid_argument("BoundedFpSet: K must be >= 1");
  if (nranks < 1) throw std::invalid_argument("BoundedFpSet: nranks >= 1");
}

void BoundedFpSet::add_local(const hash::Fingerprint& fp, int rank) {
  FpEntry e;
  e.fp = fp;
  e.freq = 1;
  e.rank_off = static_cast<std::uint32_t>(rank_pool_.size());
  e.rank_len = 1;
  entries_.push_back(e);
  rank_pool_.push_back(rank);
  ++rank_load_[static_cast<std::size_t>(rank)];
  sealed_ = false;
}

void BoundedFpSet::seal() const {
  if (sealed_) return;
  std::sort(entries_.begin(), entries_.end(),
            [](const FpEntry& a, const FpEntry& b) { return a.fp < b.fp; });
  const auto dup = std::adjacent_find(
      entries_.begin(), entries_.end(),
      [](const FpEntry& a, const FpEntry& b) { return a.fp == b.fp; });
  if (dup != entries_.end()) {
    throw std::logic_error("BoundedFpSet: duplicate local fingerprint");
  }
  sealed_ = true;
}

const FpEntry* BoundedFpSet::find(const hash::Fingerprint& fp) const {
  seal();
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), fp,
      [](const FpEntry& e, const hash::Fingerprint& key) { return e.fp < key; });
  if (it == entries_.end() || it->fp != fp) return nullptr;
  return &*it;
}

std::span<const FpEntry> BoundedFpSet::entries() const {
  seal();
  return entries_;
}

MergeStats BoundedFpSet::enforce_f() {
  seal();
  MergeStats stats;
  truncate_to_f(stats);
  return stats;
}

std::size_t BoundedFpSet::prune_singletons() {
  seal();
  std::size_t kept = 0;
  for (const FpEntry& e : entries_) {
    if (e.freq <= 1) {
      for (const std::int32_t r : ranks(e)) {
        --rank_load_[static_cast<std::size_t>(r)];
      }
    } else {
      entries_[kept++] = e;
    }
  }
  const std::size_t removed = entries_.size() - kept;
  entries_.resize(kept);
  return removed;
}

void BoundedFpSet::truncate_ranks(std::vector<std::int32_t>& scratch,
                                  MergeStats& stats) {
  if (scratch.size() <= static_cast<std::size_t>(k_)) return;
  // Keep the K least loaded designated ranks ("the most loaded ranks are
  // eliminated first", §III-B); ties break toward the lower rank id so the
  // outcome is independent of container iteration order.
  std::stable_sort(scratch.begin(), scratch.end(),
                   [&](std::int32_t a, std::int32_t b) {
                     const auto la = rank_load_[static_cast<std::size_t>(a)];
                     const auto lb = rank_load_[static_cast<std::size_t>(b)];
                     if (la != lb) return la < lb;
                     return a < b;
                   });
  for (std::size_t i = static_cast<std::size_t>(k_); i < scratch.size(); ++i) {
    --rank_load_[static_cast<std::size_t>(scratch[i])];
    ++stats.ranks_dropped_load;
  }
  scratch.resize(static_cast<std::size_t>(k_));
  std::sort(scratch.begin(), scratch.end());
}

void BoundedFpSet::truncate_to_f(MergeStats& stats) {
  if (entries_.size() <= f_cap_) return;
  // Rank all entries by (freq desc, fp asc) and keep the first F; the fp
  // tie-break keeps the survivor set deterministic.
  std::vector<std::uint32_t> order(entries_.size());
  std::iota(order.begin(), order.end(), 0u);
  std::nth_element(order.begin(), order.begin() + f_cap_, order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     if (entries_[a].freq != entries_[b].freq) {
                       return entries_[a].freq > entries_[b].freq;
                     }
                     return entries_[a].fp < entries_[b].fp;
                   });
  std::vector<char> dropped(entries_.size(), 0);
  for (std::size_t i = f_cap_; i < order.size(); ++i) dropped[order[i]] = 1;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (dropped[i]) {
      for (const std::int32_t r : ranks(entries_[i])) {
        --rank_load_[static_cast<std::size_t>(r)];
      }
      ++stats.entries_dropped_f;
    } else {
      entries_[kept++] = entries_[i];  // compaction keeps fp order
    }
  }
  entries_.resize(kept);
}

MergeStats BoundedFpSet::merge_many(std::vector<BoundedFpSet>&& others) {
  MergeStats stats;
  if (others.empty()) return stats;
  for (const BoundedFpSet& o : others) {
    if (o.k_ != k_ || o.f_cap_ != f_cap_ ||
        o.rank_load_.size() != rank_load_.size()) {
      throw std::invalid_argument("BoundedFpSet: incompatible merge operands");
    }
  }
  seal();
  std::size_t total = entries_.size();
  std::size_t live_ranks = 0;
  for (const FpEntry& e : entries_) live_ranks += e.rank_len;
  for (BoundedFpSet& o : others) {
    o.seal();
    stats.entries_scanned += o.entries_.size();
    total += o.entries_.size();
    for (const FpEntry& e : o.entries_) live_ranks += e.rank_len;
    for (std::size_t i = 0; i < rank_load_.size(); ++i) {
      rank_load_[i] += o.rank_load_[i];
    }
  }

  // One multi-way pass over all fp-sorted inputs.  The source count is a
  // reduction-tree fan-in (single digits), so a linear min-scan per
  // output beats heap bookkeeping; every input entry is read exactly
  // once and the accumulated set is written exactly once — iterated
  // pairwise merging would rewrite it once per child.
  struct Source {
    const BoundedFpSet* set;
    std::size_t pos;
  };
  std::vector<Source> srcs;
  srcs.reserve(1 + others.size());
  srcs.push_back({this, 0});
  for (const BoundedFpSet& o : others) srcs.push_back({&o, 0});

  std::vector<FpEntry> merged;
  merged.reserve(total);
  std::vector<std::int32_t> pool;
  pool.reserve(live_ranks);
  std::vector<std::int32_t> scratch;
  std::vector<std::size_t> hits;  // source indices at the current minimum

  for (;;) {
    const hash::Fingerprint* min_fp = nullptr;
    hits.clear();
    for (std::size_t si = 0; si < srcs.size(); ++si) {
      const Source& s = srcs[si];
      if (s.pos >= s.set->entries_.size()) continue;
      const hash::Fingerprint& fp = s.set->entries_[s.pos].fp;
      if (min_fp == nullptr || fp < *min_fp) {
        min_fp = &fp;
        hits.clear();
        hits.push_back(si);
      } else if (fp == *min_fp) {
        hits.push_back(si);
      }
    }
    if (min_fp == nullptr) break;
    if (hits.size() == 1) {
      Source& s = srcs[hits[0]];
      const FpEntry& e = s.set->entries_[s.pos++];
      FpEntry out = e;
      out.rank_off = static_cast<std::uint32_t>(pool.size());
      const auto r = s.set->ranks(e);
      pool.insert(pool.end(), r.begin(), r.end());
      merged.push_back(out);
      continue;
    }
    // Shared fingerprint across several children: sum frequencies, union
    // all rank lists, enforce K once against the combined loads.
    FpEntry out;
    out.fp = *min_fp;
    out.freq = 0;
    scratch.clear();
    for (const std::size_t si : hits) {
      Source& s = srcs[si];
      const FpEntry& e = s.set->entries_[s.pos++];
      out.freq += e.freq;
      const auto r = s.set->ranks(e);
      scratch.insert(scratch.end(), r.begin(), r.end());
    }
    std::sort(scratch.begin(), scratch.end());
    scratch.erase(std::unique(scratch.begin(), scratch.end()), scratch.end());
    truncate_ranks(scratch, stats);
    out.rank_off = static_cast<std::uint32_t>(pool.size());
    out.rank_len = static_cast<std::uint32_t>(scratch.size());
    pool.insert(pool.end(), scratch.begin(), scratch.end());
    merged.push_back(out);
  }

  entries_ = std::move(merged);
  rank_pool_ = std::move(pool);
  truncate_to_f(stats);
  return stats;
}

bool BoundedFpSet::check_invariants() const {
  seal();
  if (entries_.size() > f_cap_) return false;
  std::vector<std::uint32_t> counted(rank_load_.size(), 0);
  const hash::Fingerprint* prev = nullptr;
  for (const FpEntry& e : entries_) {
    if (prev != nullptr && !(*prev < e.fp)) return false;
    prev = &e.fp;
    if (e.freq == 0) return false;
    if (e.rank_len == 0 || e.rank_len > static_cast<std::uint32_t>(k_)) {
      return false;
    }
    if (static_cast<std::size_t>(e.rank_off) + e.rank_len > rank_pool_.size()) {
      return false;
    }
    const auto r = ranks(e);
    if (!std::is_sorted(r.begin(), r.end())) return false;
    if (std::adjacent_find(r.begin(), r.end()) != r.end()) return false;
    for (const std::int32_t rank : r) {
      if (rank < 0 || static_cast<std::size_t>(rank) >= counted.size()) {
        return false;
      }
      ++counted[static_cast<std::size_t>(rank)];
    }
  }
  return counted == rank_load_;
}

// Wire format (canonical: entries fingerprint-ascending, so equal sets
// serialize to identical bytes):
//   header: F, K, nranks, rank_load[], entry count
//   per entry, delta-coded against the previous fingerprint:
//     u8 lead  — zero bytes before the significant delta run
//     u8 len   — significant delta bytes (big-endian); trailing zeros
//                implied (u64-derived fingerprints have 12 of them)
//     len raw bytes, varint freq, varint rank count,
//     varint first rank then varint rank deltas (lists are sorted).
void save(simmpi::OArchive& ar, const BoundedFpSet& s) {
  s.seal();
  ar.put(s.f_cap_);
  ar.put(s.k_);
  ar.put(static_cast<std::uint32_t>(s.rank_load_.size()));
  ar.put(s.rank_load_);
  ar.put_size(s.entries_.size());

  std::size_t live_ranks = 0;
  for (const FpEntry& e : s.entries_) live_ranks += e.rank_len;
  // One reservation covers the worst case of the whole entry stream: 2
  // header bytes + full fingerprint + 5-byte freq varint per entry, 5
  // bytes per designated rank.
  ar.reserve(s.entries_.size() * (2 + kFpBytes + 5 + 5) + live_ranks * 5);

  hash::Fingerprint prev;
  for (const FpEntry& e : s.entries_) {
    const auto delta = fp_sub(e.fp, prev);
    std::size_t lead = 0;
    while (lead < kFpBytes && delta[lead] == 0) ++lead;
    std::size_t last = kFpBytes;
    while (last > lead && delta[last - 1] == 0) --last;
    const std::size_t len = last - lead;  // 0 only for an all-zero delta
    // One buffer append for the fixed-layout head (lead, len, delta run)
    // instead of three; the varints batch their bytes internally.
    std::uint8_t head[2 + kFpBytes];
    head[0] = static_cast<std::uint8_t>(lead);
    head[1] = static_cast<std::uint8_t>(len);
    std::memcpy(head + 2, delta.data() + lead, len);
    ar.write_raw(head, 2 + len);
    ar.put_varint(e.freq);
    const auto r = s.ranks(e);
    ar.put_varint(r.size());
    std::int32_t prev_rank = 0;
    for (const std::int32_t rank : r) {
      ar.put_varint(static_cast<std::uint64_t>(rank - prev_rank));
      prev_rank = rank;
    }
    prev = e.fp;
  }
}

void load(simmpi::IArchive& ar, BoundedFpSet& s) {
  ar.get(s.f_cap_);
  ar.get(s.k_);
  std::uint32_t nranks = 0;
  ar.get(nranks);
  ar.get(s.rank_load_);
  if (s.rank_load_.size() != nranks) {
    throw std::runtime_error("BoundedFpSet: corrupt load vector");
  }
  // The smallest valid entry: lead and len bytes, one-byte freq and rank
  // count varints, and one designated rank.
  constexpr std::size_t kMinEntryBytes = 5;
  const std::size_t count = ar.get_size();
  if (count > ar.remaining() / kMinEntryBytes) {
    throw std::runtime_error("BoundedFpSet: entry count exceeds buffer");
  }
  s.entries_.clear();
  s.entries_.reserve(count);
  s.rank_pool_.clear();
  s.rank_pool_.reserve(count);  // >= one designated rank per entry

  const auto max_ranks = static_cast<std::uint64_t>(std::max(s.k_, 0));
  hash::Fingerprint prev;
  for (std::size_t i = 0; i < count; ++i) {
    const auto lead = ar.get<std::uint8_t>();
    const auto len = ar.get<std::uint8_t>();
    if (static_cast<std::size_t>(lead) + len > kFpBytes) {
      throw std::runtime_error("BoundedFpSet: corrupt fingerprint delta");
    }
    std::array<std::uint8_t, kFpBytes> delta{};
    ar.read_raw(delta.data() + lead, len);
    if (i > 0 && len == 0) {
      throw std::runtime_error("BoundedFpSet: fingerprints not ascending");
    }
    FpEntry e;
    e.fp = prev;
    if (fp_add(e.fp, delta) != 0) {
      throw std::runtime_error("BoundedFpSet: corrupt fingerprint delta");
    }
    const std::uint64_t freq = ar.get_varint();
    if (freq == 0 || freq > std::numeric_limits<std::uint32_t>::max()) {
      throw std::runtime_error("BoundedFpSet: corrupt frequency");
    }
    const std::uint64_t rank_len = ar.get_varint();
    if (rank_len > max_ranks) {
      throw std::runtime_error("BoundedFpSet: rank list longer than K");
    }
    e.freq = static_cast<std::uint32_t>(freq);
    e.rank_off = static_cast<std::uint32_t>(s.rank_pool_.size());
    e.rank_len = static_cast<std::uint32_t>(rank_len);
    std::uint64_t rank = 0;
    for (std::uint64_t j = 0; j < rank_len; ++j) {
      const std::uint64_t step = ar.get_varint();
      if (j > 0 && step == 0) {
        throw std::runtime_error("BoundedFpSet: ranks not strictly ascending");
      }
      if (step >= nranks || rank + step >= nranks) {
        throw std::runtime_error("BoundedFpSet: rank out of range");
      }
      rank += step;
      s.rank_pool_.push_back(static_cast<std::int32_t>(rank));
    }
    s.entries_.push_back(e);
    prev = e.fp;
  }
  s.sealed_ = true;
  if (!s.check_invariants()) {
    throw std::runtime_error("BoundedFpSet: loaded set violates invariants");
  }
}

BoundedFpSet reduce_global_view(simmpi::Comm& comm,
                                const LocalDedupResult& local,
                                std::uint32_t f_cap, int k) {
  const int rank = comm.rank();
  const auto& cluster = comm.cluster();
  BoundedFpSet mine(f_cap, k, comm.size());
  for (const auto u : local.unique_chunks) {
    mine.add_local(local.chunk_fps[u], rank);
  }
  mine.enforce_f();
  // K-way reduce: a tree node merges all children it received in one
  // multi-way HMERGE pass.
  BoundedFpSet gview = simmpi::reduce_kway(
      comm, std::move(mine),
      [&comm, &cluster](BoundedFpSet a, std::vector<BoundedFpSet> children) {
        const MergeStats ms = a.merge_many(std::move(children));
        comm.charge(static_cast<double>(ms.entries_scanned) *
                    cluster.merge_entry_cost_s);
        return a;
      },
      0);
  // Singletons are semantically dead weight in the view (see
  // BoundedFpSet::prune_singletons); drop them before the broadcast.
  if (rank == 0) (void)gview.prune_singletons();
  simmpi::bcast(comm, gview, 0);
  return gview;
}

}  // namespace collrep::core
