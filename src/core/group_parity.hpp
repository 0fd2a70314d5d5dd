// Erasure-coded collective dump: the paper's §VI future-work direction
// ("data not duplicated to a sufficient degree can be made resilient
// through erasure codes as an alternative to replication"), implemented
// FTI-style.
//
// Ranks are partitioned into groups of `group_size` consecutive ranks.
// After (optionally collective) deduplication, every rank's stream of
// insufficiently-duplicated unique chunks becomes one RS data shard per
// stripe; `parity` parity shards per stripe are accumulated along a ring
// chain through the group (each member folds coeff * own-chunk into the
// running parity) and stored on the `parity` ranks that follow the group.
// Chunks that are already naturally duplicated on more than `parity`
// ranks are excluded from the stream — natural replicas substitute for
// coding, exactly as coll-dedup substitutes them for replication.
//
// Resilience: any `parity` rank-store failures are survivable (natural
// copies cover the excluded chunks, RS decoding covers the streams).
// Storage overhead for the coded data is parity/group_size instead of
// replication's (K-1)x.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "chunk/dataset.hpp"
#include "chunk/store.hpp"
#include "hash/hasher.hpp"
#include "core/restore.hpp"
#include "ec/reed_solomon.hpp"
#include "simmpi/comm.hpp"

namespace collrep::core {

struct EcConfig {
  int group_size = 4;   // RS data shards (m)
  int parity = 2;       // RS parity shards (r) = tolerated failures
  std::size_t chunk_bytes = 4096;
  std::uint32_t threshold_f = 1u << 17;
  hash::HashKind hash_kind = hash::HashKind::kSha1;
  // true: run the collective fingerprint reduction and exclude naturally
  // duplicated chunks from the coded stream (the paper's envisioned
  // hybrid); false: erasure-code every locally unique chunk.
  bool use_collective_dedup = true;
  std::uint64_t epoch = 0;
};

struct EcDumpStats {
  int rank = 0;
  std::uint64_t dataset_bytes = 0;
  std::uint64_t chunk_count = 0;
  std::uint64_t stream_chunks = 0;      // chunks protected by coding
  std::uint64_t excluded_chunks = 0;    // covered by natural replicas
  std::uint64_t stored_bytes = 0;       // own chunks committed locally
  std::uint64_t parity_bytes = 0;       // parity shards stored on this rank
  std::uint64_t sent_bytes = 0;         // ring-chain + shard traffic
  double total_time_s = 0.0;
};

class EcDumper {
 public:
  EcDumper(simmpi::Comm& comm, chunk::ChunkStore& store, EcConfig config);

  // Collective across all ranks of the communicator.
  EcDumpStats dump_output(const chunk::Dataset& buffer);

 private:
  simmpi::Comm& comm_;
  chunk::ChunkStore& store_;
  EcConfig config_;
};

// Group geometry helpers (shared by dump and restore).
[[nodiscard]] int ec_group_of(int rank, const EcConfig& config) noexcept;
[[nodiscard]] int ec_group_count(int nranks, const EcConfig& config) noexcept;
// Members of `group` (clamped to nranks) and the parity-holder ranks that
// follow the group in ring order.
[[nodiscard]] std::vector<int> ec_group_members(int group, int nranks,
                                                const EcConfig& config);
[[nodiscard]] std::vector<int> ec_parity_holders(int group, int nranks,
                                                 const EcConfig& config);
[[nodiscard]] std::string ec_parity_key(int group, int parity_index,
                                        std::uint64_t epoch);
[[nodiscard]] std::string ec_stream_key(int rank, std::uint64_t epoch);

// Restores `rank`'s dumped dataset through core::refill_segments, like
// core::restore_rank: each chunk comes from the rank's own store, else
// from any other alive store, else from the group's chunk streams, which
// are decoded from survivors + parity on the first such miss.  Throws
// ManifestLostError / ChunkLostError like core::restore_rank, and
// std::runtime_error when the group lost more than `parity` shards.
[[nodiscard]] core::RestoreResult ec_restore_rank(
    std::span<chunk::ChunkStore* const> stores, int rank,
    const EcConfig& config);

}  // namespace collrep::core
