// ReplicaPlan: which chunks this rank keeps, discards, and sends to which
// partner slots (paper Algorithm 1, lines 4-9).
//
// Three builders — one per evaluated strategy:
//   * plan_full          (no-dedup): every chunk, duplicates included, is
//                        stored locally and sent to all K-1 partners;
//   * plan_local_dedup   (local-dedup): every locally unique chunk is
//                        stored and sent to all K-1 partners;
//   * plan_collective    (coll-dedup): consults the global view — chunks
//                        already replicated K times elsewhere are
//                        discarded; designated chunks are topped up to K
//                        copies with the round-robin split among the
//                        designated ranks.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/fingerprint_set.hpp"
#include "core/local_dedup.hpp"

namespace collrep::core {

struct ChunkAssignment {
  // Index into LocalDedupResult::unique_chunks for dedup strategies, or a
  // raw chunk index for plan_full.
  std::uint32_t chunk = 0;
  bool store_local = false;
  std::vector<std::uint8_t> send_slots;  // partner slots, each in 1..K-1
};

struct ReplicaPlan {
  std::vector<ChunkAssignment> assignments;
  std::vector<std::uint64_t> load;  // size K; [0]=local, [p]=slot p sends
  std::uint64_t discarded_chunks = 0;
  std::uint64_t discarded_bytes = 0;
  // This rank's contribution to the globally-unique-content total
  // (Fig. 3a): bytes of fingerprints it "owns" — every locally unique
  // chunk for the blind strategies; for coll-dedup a view fingerprint is
  // owned only by its first designated rank.
  std::uint64_t owned_unique_bytes = 0;
  std::uint32_t skip_fallbacks = 0;  // designated-target avoidance failed
};

// Context for the designated-target avoidance pass: once the shuffle is
// known, a sender can steer top-up replicas away from partners that are
// themselves designated for the fingerprint (DESIGN.md §1, deviation 3).
struct ShuffleContext {
  std::span<const int> shuffle;       // position -> rank
  std::span<const int> position_of;   // rank -> position
};

[[nodiscard]] ReplicaPlan plan_full(std::span<const std::uint32_t> chunk_lengths,
                                    int k_effective);

[[nodiscard]] ReplicaPlan plan_local_dedup(const LocalDedupResult& local,
                                           const chunk::Chunker& chunker,
                                           int k_effective);

// The view entry of each locally unique chunk, by index into
// LocalDedupResult::unique_chunks (nullptr where the view does not track
// the fingerprint).  A dump looks each chunk up once and plans twice.
[[nodiscard]] std::vector<const FpEntry*> resolve_view(
    const LocalDedupResult& local, const BoundedFpSet& gview);

// `entries` is resolve_view(local, gview); the pointers are into `gview`.
[[nodiscard]] ReplicaPlan plan_collective(
    const LocalDedupResult& local, const chunk::Chunker& chunker,
    const BoundedFpSet& gview, std::span<const FpEntry* const> entries,
    int my_rank, int k_effective, const ShuffleContext* shuffle_ctx);

// Same, resolving the view itself.
[[nodiscard]] ReplicaPlan plan_collective(
    const LocalDedupResult& local, const chunk::Chunker& chunker,
    const BoundedFpSet& gview, int my_rank, int k_effective,
    const ShuffleContext* shuffle_ctx);

}  // namespace collrep::core
