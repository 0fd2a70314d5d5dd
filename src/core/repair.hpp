// REPAIR: the dedup-aware replica scrub (paper §VI future work).
//
// After failures degrade the replication factor — a store died mid-dump, a
// node was replaced with a blank disk — repair_replicas() audits replica
// counts across all surviving stores with the same HMERGE-style reduction
// DUMP_OUTPUT uses for deduplication, counts naturally distributed
// duplicates toward K, and re-replicates only the shortfall through the
// one-sided window path.  The alternative (re-dumping the full dataset)
// ships every replica again; the scrub ships exactly the missing copies,
// which is the measurement bench/ablate_failures.cpp makes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "chunk/store.hpp"
#include "core/landing.hpp"
#include "hash/fingerprint.hpp"
#include "simmpi/archive.hpp"
#include "simmpi/comm.hpp"

namespace collrep::core {

// Reduction operand of the repair audit: fingerprint -> replica health.
// Holder lists are kept only while a fingerprint is still below K — once
// the count reaches K the entry is "satisfied" and its holders are
// dropped, so the merged set stays small in the healthy case (holders
// never exceed K-1 per under-replicated entry).
class ReplicaHealthSet {
 public:
  struct Entry {
    std::uint32_t count = 0;   // replicas across contributing alive stores
    std::uint32_t length = 0;  // chunk payload bytes
    std::vector<std::int32_t> holders;  // sorted ranks; empty once satisfied
  };

  ReplicaHealthSet() = default;
  explicit ReplicaHealthSet(int k) : k_(k) {}

  // Registers one chunk held by `rank`'s alive store (count 1).
  void add_local(const hash::Fingerprint& fp, std::uint32_t length, int rank);

  // HMERGE analogue: folds `other` into *this, summing counts, unioning
  // holders, and dropping holder lists that reached K.  Returns the number
  // of entries scanned (for the merge cost model).
  std::uint64_t merge_from(ReplicaHealthSet&& other);

  [[nodiscard]] const Entry* find(const hash::Fingerprint& fp) const {
    const auto it = entries_.find(fp);
    return it == entries_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] int k() const noexcept { return k_; }

  // Every entry has a nonzero count and strictly ascending, non-negative
  // holders, and no holders once its count reached K.  load() checks it.
  [[nodiscard]] bool check_invariants() const;
  [[nodiscard]] const std::unordered_map<hash::Fingerprint, Entry,
                                         hash::FingerprintHash>&
  entries() const noexcept {
    return entries_;
  }

  friend void save(simmpi::OArchive& ar, const ReplicaHealthSet& s);
  friend void load(simmpi::IArchive& ar, ReplicaHealthSet& s);

 private:
  int k_ = 1;
  std::unordered_map<hash::Fingerprint, Entry, hash::FingerprintHash>
      entries_;
};

void save(simmpi::OArchive& ar, const ReplicaHealthSet& s);
// Treats the bytes as untrusted: the entry count is bounded by the
// remaining input before anything is allocated, and a repeated fingerprint
// or a set that fails check_invariants() throws std::runtime_error.
void load(simmpi::IArchive& ar, ReplicaHealthSet& s);

// Collective audit helper (also used by the degraded dump path): every
// rank contributes the contents of its own alive store (nothing when the
// store is failed) and all ranks return the merged global health map.
// Merge compute is charged to the cost model like the dedup reduction.
[[nodiscard]] ReplicaHealthSet allreduce_health(simmpi::Comm& comm,
                                               const chunk::ChunkStore& store,
                                               int k);

// One replica copy to ship: `sender` holds the chunk, `receiver` is an
// alive non-holder, and the record lands at `offset` in the receiver's
// window.
struct ShortfallSend {
  hash::Fingerprint fp;
  std::uint32_t length = 0;
  int sender = 0;
  int receiver = 0;
  std::uint64_t offset = 0;
};

struct ShortfallPlan {
  bool payload_mode = false;  // records carry payloads
  std::vector<ShortfallSend> sends;  // fingerprint-ascending
  std::uint64_t deficit_chunks = 0;  // fingerprints below K_eff
  std::uint64_t deficit_bytes = 0;   // their payload bytes (once)
  std::uint64_t satisfied_chunks = 0;  // fingerprints already at K_eff
  std::uint64_t satisfied_bytes = 0;
  std::uint64_t shipped_bytes = 0;  // payload bytes over all sends
};

// Plans the re-replication of every fingerprint below `keff` copies.
// Pure and deterministic, so every rank computes the same plan from the
// same merged health set and the window offsets need no negotiation (the
// shortfall analogue of CALC_OFF): deficits are taken in fingerprint
// order, receivers come from one rotating cursor over the alive
// non-holders (spreading the load), and senders rotate over the holders.
// Each deficit gets min(keff - count, alive non-holders) new copies, and
// records are packed per receiver from offset 0.  `alive_ranks` must be
// ascending.
[[nodiscard]] ShortfallPlan plan_shortfall(const ReplicaHealthSet& health,
                                           int keff,
                                           std::span<const int> alive_ranks,
                                           bool payload_mode);

struct ShipStats {
  std::uint64_t sent_chunks = 0;  // records this rank put
  std::uint64_t sent_bytes = 0;   // their payload bytes
  std::uint64_t recv_chunks = 0;  // copies committed to this rank's store
  std::uint64_t recv_bytes = 0;
};

// Collective: executes `plan` in one window epoch.  Each rank puts the
// records it sends, passes `fault_point`, and fences; each rank whose
// store is alive then commits the records addressed to it and charges the
// receive-side copy and disk write.  `store` must be in payload mode
// exactly when plan.payload_mode is set.
ShipStats ship_shortfall(simmpi::Comm& comm, chunk::ChunkStore& store,
                         const ShortfallPlan& plan, const char* fault_point);

struct RepairStats {
  int rank = 0;
  int k_requested = 0;
  int k_effective = 0;  // min(K, alive stores)
  int alive_stores = 0;

  // Per-rank: this rank's share of the audit and the exchange.
  std::uint64_t audited_chunks = 0;  // chunks scanned in this rank's store
  std::uint64_t audited_bytes = 0;
  std::uint64_t sent_chunks = 0;  // replica copies this rank shipped
  std::uint64_t sent_bytes = 0;
  std::uint64_t recv_chunks = 0;  // replica copies committed locally
  std::uint64_t recv_bytes = 0;

  // Global (identical on every rank).
  std::uint64_t global_chunks = 0;  // distinct fingerprints across stores
  std::uint64_t under_replicated_chunks = 0;  // fingerprints below K_eff
  std::uint64_t under_replicated_bytes = 0;   // their payload bytes (once)
  std::uint64_t resent_chunks = 0;  // replica copies shipped in total
  std::uint64_t resent_bytes = 0;   // payload bytes of those copies
  std::uint64_t lost_chunks = 0;  // manifest-referenced, zero replicas left
  std::uint64_t lost_bytes = 0;
  int k_achieved_min_before = 0;  // over manifest-referenced fingerprints
  int k_achieved_min_after = 0;

  double total_time_s = 0.0;  // aligned completion; identical on all ranks
};

// Collective replica scrub.  `stores[i]` is rank i's device (the same
// harness layout restore_input uses); each rank touches only its own
// entry plus the window exchange.  Ranks whose store is failed still
// participate in the collectives but contribute and receive nothing.
// Chunks whose replicas are all gone cannot be repaired and are reported
// as lost (restore of the affected datasets would throw ChunkLostError).
// Stats are published under "repair.*" in the attached MetricsRegistry.
[[nodiscard]] RepairStats repair_replicas(
    simmpi::Comm& comm, std::span<chunk::ChunkStore* const> stores, int k);

}  // namespace collrep::core
