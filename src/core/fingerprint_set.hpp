// BoundedFpSet: the reduction operand of the paper's collective
// deduplication (§III-B).
//
// It maps fingerprints to (frequency, designated ranks) and enforces two
// bounds during every HMERGE:
//   * at most F fingerprints survive (the most frequent; the rest are
//     treated as unique — the paper's complexity-bounding relaxation), and
//   * at most K designated ranks per fingerprint, truncated so that the
//     *most loaded* ranks are dropped first, which embeds load balancing
//     into the reduction ("uniform rank assignment").
// A per-rank designation-count vector travels with the set so truncation
// decisions stay consistent as the reduction ascends the tree.
//
// Storage is a fingerprint-sorted flat vector of fixed-size entries whose
// designated-rank lists live in one shared pool, so HMERGE is a single
// linear multi-way merge (no rehashing, no per-entry allocation) and
// lookups are a binary search over contiguous memory.  add_local() is an
// O(1) append; the set seals itself (sort + duplicate check) lazily at the
// first lookup, merge, bound enforcement, or serialization.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/local_dedup.hpp"
#include "hash/fingerprint.hpp"
#include "simmpi/archive.hpp"
#include "simmpi/comm.hpp"

namespace collrep::core {

struct FpEntry {
  hash::Fingerprint fp{};
  std::uint32_t freq = 0;      // number of processes holding the chunk
  std::uint32_t rank_off = 0;  // into the set's shared rank pool
  std::uint32_t rank_len = 0;  // designated ranks, sorted, <= K
};

struct MergeStats {
  std::uint64_t entries_scanned = 0;
  std::uint64_t entries_dropped_f = 0;   // victims of the top-F bound
  std::uint64_t ranks_dropped_load = 0;  // victims of the K-truncation
};

class BoundedFpSet {
 public:
  BoundedFpSet() = default;
  BoundedFpSet(std::uint32_t f_cap, int k, int nranks);

  // Registers one locally unique fingerprint of `rank` (freq 1).  O(1)
  // append; a duplicate fingerprint is diagnosed (std::logic_error) at the
  // next seal point — enforce_f(), merge_many(), find(), or save().  Call
  // enforce_f() once after the last add_local (adds skip the F bound so
  // leaf construction stays linear).
  void add_local(const hash::Fingerprint& fp, int rank);
  MergeStats enforce_f();

  // HMERGE: folds all of `others` into *this in one multi-way pass — a
  // reduction-tree node with several children merges every child against
  // the accumulated set once, instead of rewriting the accumulator per
  // child.  Designation loads are summed first; each shared fingerprint
  // then gets its frequencies summed and its rank lists unioned and
  // K-truncated (fingerprint-ascending), and the F bound is enforced last.
  // Results can differ from iterated single-child merges when the K or F
  // bound binds at an intermediate step (the bounds themselves still
  // hold).  entries_scanned sums the incoming entry counts.
  MergeStats merge_many(std::vector<BoundedFpSet>&& others);

  // Drops frequency-1 entries.  Applied to the fully reduced set before
  // broadcast: a singleton's only holder behaves identically whether the
  // fingerprint is in the view (designated, D=1 < K, sends K-1 top-ups)
  // or absent (stores + sends K-1 copies), while no other rank holds it —
  // so pruning preserves semantics, shrinks the broadcast, and stops
  // singletons from crowding frequent fingerprints out of the F slots.
  // Returns the number of entries removed.
  std::size_t prune_singletons();

  // Binary search over the sorted entry vector; nullptr when absent.  The
  // pointer is invalidated by any mutating call.
  [[nodiscard]] const FpEntry* find(const hash::Fingerprint& fp) const;

  // The designated ranks of an entry obtained from find()/entries().
  [[nodiscard]] std::span<const std::int32_t> ranks(
      const FpEntry& entry) const noexcept {
    return {rank_pool_.data() + entry.rank_off, entry.rank_len};
  }

  // All entries, fingerprint-ascending.
  [[nodiscard]] std::span<const FpEntry> entries() const;

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] std::uint32_t f_cap() const noexcept { return f_cap_; }
  [[nodiscard]] int k() const noexcept { return k_; }
  [[nodiscard]] int nranks() const noexcept {
    return static_cast<int>(rank_load_.size());
  }
  // Designation count per rank ("how many fingerprints is rank i
  // responsible for"), maintained incrementally across merges.
  [[nodiscard]] std::span<const std::uint32_t> rank_load() const noexcept {
    return rank_load_;
  }

  // Verifies internal consistency (tests): load vector matches entries,
  // rank lists sorted/unique/bounded, entries sorted, size within F.
  [[nodiscard]] bool check_invariants() const;

  friend void save(simmpi::OArchive& ar, const BoundedFpSet& s);
  friend void load(simmpi::IArchive& ar, BoundedFpSet& s);

 private:
  // Sorts appended entries by fingerprint and rejects duplicates.  Lazily
  // invoked from const accessors (single-owner objects, not thread-safe).
  void seal() const;
  // Keeps the K least-loaded designated ranks of `scratch` (ties toward
  // the lower rank id), releasing the dropped ranks' load.
  void truncate_ranks(std::vector<std::int32_t>& scratch, MergeStats& stats);
  // Drops least frequent entries until size() <= F.
  void truncate_to_f(MergeStats& stats);

  std::uint32_t f_cap_ = 0;
  int k_ = 1;
  mutable bool sealed_ = true;
  mutable std::vector<FpEntry> entries_;  // fp-ascending once sealed
  std::vector<std::int32_t> rank_pool_;
  std::vector<std::uint32_t> rank_load_;
};

void save(simmpi::OArchive& ar, const BoundedFpSet& s);
// Treats the bytes as untrusted: counts are bounded by the remaining input
// before anything is allocated, and a set that breaks the wire format or
// check_invariants() (ranks out of range or not strictly ascending, more
// than K ranks, zero frequency, a load vector that does not match) throws
// std::runtime_error.
void load(simmpi::IArchive& ar, BoundedFpSet& s);

// The global view (the paper's ALLREDUCE(HMERGE, LHashes) step).
// Collective: each rank builds its leaf from `local`'s unique chunks,
// bounded to `f_cap` entries and `k` designated ranks, the leaves are
// reduced k-way onto rank 0 (each merge charges entries_scanned *
// merge_entry_cost_s to the merging rank), rank 0 drops the singletons,
// and every rank returns the broadcast result.  Building the leaf is not
// charged here: callers that model it charge it themselves.
[[nodiscard]] BoundedFpSet reduce_global_view(simmpi::Comm& comm,
                                              const LocalDedupResult& local,
                                              std::uint32_t f_cap, int k);

}  // namespace collrep::core
