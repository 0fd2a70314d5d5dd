// Phase 1 of the paper's two-phase deduplication: each process removes the
// duplicates *within its own dataset*, producing the locally unique
// fingerprint set (LHashes) that enters the collective reduction.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "chunk/dataset.hpp"
#include "hash/hasher.hpp"

namespace collrep::core {

struct LocalDedupResult {
  // Fingerprint of every chunk, in buffer order (manifest construction).
  std::vector<hash::Fingerprint> chunk_fps;
  // Chunk index of the first occurrence of each unique fingerprint, in
  // order of first appearance.
  std::vector<std::uint32_t> unique_chunks;
  // fp -> index into unique_chunks.
  std::unordered_map<hash::Fingerprint, std::uint32_t, hash::FingerprintHash>
      index_of;
  std::uint64_t unique_bytes = 0;
  std::uint64_t total_bytes = 0;
};

// Hashes every chunk in one batch (so SHA-1 runs 16 chunks per pass),
// then dedups in chunk order.
[[nodiscard]] inline LocalDedupResult local_dedup(
    const chunk::Chunker& chunker, const hash::ChunkHasher& hasher) {
  LocalDedupResult out;
  const std::size_t n = chunker.count();
  std::vector<std::span<const std::uint8_t>> chunks(n);
  for (std::size_t i = 0; i < n; ++i) chunks[i] = chunker.bytes(i);
  out.chunk_fps.resize(n);
  hasher.fingerprint_batch(chunks, out.chunk_fps);

  out.index_of.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t bytes = chunks[i].size();
    out.total_bytes += bytes;
    const auto [it, inserted] = out.index_of.try_emplace(
        out.chunk_fps[i], static_cast<std::uint32_t>(out.unique_chunks.size()));
    if (inserted) {
      out.unique_chunks.push_back(static_cast<std::uint32_t>(i));
      out.unique_bytes += bytes;
    }
  }
  return out;
}

}  // namespace collrep::core
