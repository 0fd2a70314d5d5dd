// Restart path: rebuild a rank's dumped dataset from the surviving local
// stores.  This is what makes the replication factor meaningful — the
// paper's checkpoint-restart use case tolerates up to K-1 device failures,
// and the failure-injection tests drive exactly that property.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "chunk/store.hpp"
#include "hash/fingerprint.hpp"
#include "simmpi/comm.hpp"

namespace collrep::core {

namespace detail {
[[nodiscard]] std::string manifest_lost_message(int rank, int consulted,
                                                int failed);
[[nodiscard]] std::string chunk_lost_message(const hash::Fingerprint& fp,
                                             int owner_rank, int consulted,
                                             int failed);
}  // namespace detail

// The degraded-restore errors carry enough to make a failing test
// actionable: which dataset, which chunk (fingerprint hex prefix), and how
// many stores were consulted vs. already failed when the search gave up.
class ManifestLostError : public std::runtime_error {
 public:
  ManifestLostError(int rank, int stores_consulted, int stores_failed)
      : std::runtime_error(detail::manifest_lost_message(rank, stores_consulted,
                                                         stores_failed)),
        rank_(rank),
        consulted_(stores_consulted),
        failed_(stores_failed) {}

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int stores_consulted() const noexcept { return consulted_; }
  [[nodiscard]] int stores_failed() const noexcept { return failed_; }

 private:
  int rank_;
  int consulted_;
  int failed_;
};

class ChunkLostError : public std::runtime_error {
 public:
  ChunkLostError(const hash::Fingerprint& fp, int owner_rank,
                 int stores_consulted, int stores_failed)
      : std::runtime_error(detail::chunk_lost_message(
            fp, owner_rank, stores_consulted, stores_failed)),
        fp_(fp),
        owner_rank_(owner_rank),
        consulted_(stores_consulted),
        failed_(stores_failed) {}

  // Fingerprint of the missing chunk.
  [[nodiscard]] const hash::Fingerprint& fp() const noexcept { return fp_; }
  // Rank whose dataset needed the chunk.
  [[nodiscard]] int owner_rank() const noexcept { return owner_rank_; }
  [[nodiscard]] int stores_consulted() const noexcept { return consulted_; }
  [[nodiscard]] int stores_failed() const noexcept { return failed_; }

 private:
  hash::Fingerprint fp_;
  int owner_rank_;
  int consulted_;
  int failed_;
};

struct RestoreResult {
  std::vector<std::vector<std::uint8_t>> segments;
  std::uint64_t chunks_from_own_store = 0;
  std::uint64_t chunks_from_remote_stores = 0;
  std::uint64_t bytes_from_own_store = 0;
  std::uint64_t bytes_from_remote_stores = 0;
};

// The newest manifest of `rank` over the alive stores (nullptr when none
// holds one), with the stores examined and the failed/absent ones skipped.
struct ManifestScan {
  const chunk::Manifest* manifest = nullptr;
  int consulted = 0;
  int failed = 0;
};
// Throws std::out_of_range when `rank` has no slot in `stores`.
[[nodiscard]] ManifestScan newest_manifest(
    std::span<chunk::ChunkStore* const> stores, int rank);

// One chunk payload found by a restore source.  `own` marks a read from
// the restoring rank's own device (RestoreResult's own-store counters).
struct FetchedChunk {
  std::span<const std::uint8_t> payload;
  bool own = false;
};
// Looks up one fingerprint; the payload must stay valid until the next
// call.
using PayloadSource =
    std::function<std::optional<FetchedChunk>(const hash::Fingerprint&)>;

// The replica source: `rank`'s own store first, then every other alive
// store in index order.
[[nodiscard]] std::optional<FetchedChunk> fetch_replica(
    std::span<chunk::ChunkStore* const> stores, int rank,
    const hash::Fingerprint& fp);

// The one restore loop: rebuilds the segments of `scan.manifest` (the
// dataset of `rank`) from `source`.  Throws ManifestLostError when the scan
// found no manifest and ChunkLostError when the source misses a chunk;
// rejects a manifest that does not tile its segments before sizing any
// buffer from it, and a payload that overruns its segment or differs from
// its entry's length.
[[nodiscard]] RestoreResult refill_segments(const ManifestScan& scan, int rank,
                                            const PayloadSource& source);

// Rebuilds `rank`'s most recent dump from `stores` (index == rank).  Failed
// stores are skipped; throws ManifestLostError / ChunkLostError when the
// failure pattern exceeds what the replication factor can tolerate.
// Stores must be payload mode.
[[nodiscard]] RestoreResult restore_rank(
    std::span<chunk::ChunkStore* const> stores, int rank);

struct CollectiveRestoreStats {
  std::uint64_t local_bytes = 0;
  std::uint64_t remote_bytes = 0;
  // Aligned completion time of the collective restart (same on all ranks).
  double total_time_s = 0.0;
};

// RESTORE_INPUT: the collective restart counterpart of DUMP_OUTPUT.
// Every rank rebuilds its own most recent dump; local reads are charged at
// HDD read rate, remote fetches additionally traverse the network.  Must
// be called by all ranks of the communicator.
[[nodiscard]] std::pair<RestoreResult, CollectiveRestoreStats> restore_input(
    simmpi::Comm& comm, std::span<chunk::ChunkStore* const> stores);

}  // namespace collrep::core
