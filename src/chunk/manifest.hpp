// Manifest: the recipe for rebuilding one rank's dataset from
// content-addressed chunks.  Written (and replicated) at dump time, read at
// restore time.  Entries are in buffer order; restoring concatenates the
// chunk payloads segment by segment.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "hash/fingerprint.hpp"
#include "simmpi/archive.hpp"

namespace collrep::chunk {

struct ManifestEntry {
  hash::Fingerprint fp;
  std::uint32_t length = 0;
};
static_assert(std::is_trivially_copyable_v<ManifestEntry>);

struct Manifest {
  std::int32_t owner_rank = -1;
  std::uint64_t epoch = 0;  // checkpoint number; newest wins at restore
  std::vector<std::uint64_t> segment_sizes;
  std::vector<ManifestEntry> entries;

  [[nodiscard]] std::uint64_t total_bytes() const noexcept {
    std::uint64_t sum = 0;
    for (auto s : segment_sizes) sum += s;
    return sum;
  }

  // True when the entries tile the segments in order, the way restore
  // refills them: each entry fits in the space left in the first segment
  // that is not yet full (chunks never straddle a segment boundary), and
  // every segment ends exactly full.  So the segment sizes sum to the
  // entry lengths, at most 4 GiB per entry, and cannot overflow.  Restore
  // checks this before it sizes any buffer from segment_sizes.
  [[nodiscard]] bool check_invariants() const noexcept {
    std::size_t seg = 0;
    std::uint64_t filled = 0;
    for (const ManifestEntry& e : entries) {
      while (seg < segment_sizes.size() && filled == segment_sizes[seg]) {
        ++seg;
        filled = 0;
      }
      if (seg == segment_sizes.size()) return false;
      if (e.length > segment_sizes[seg] - filled) return false;
      filled += e.length;
    }
    for (; seg < segment_sizes.size(); ++seg, filled = 0) {
      if (filled != segment_sizes[seg]) return false;
    }
    return true;
  }
};

inline void save(simmpi::OArchive& ar, const Manifest& m) {
  ar.put(m.owner_rank);
  ar.put(m.epoch);
  ar.put(m.segment_sizes);
  ar.put(m.entries);
}

// Treats the bytes as untrusted: a manifest whose entries do not tile its
// segments throws std::runtime_error.
inline void load(simmpi::IArchive& ar, Manifest& m) {
  ar.get(m.owner_rank);
  ar.get(m.epoch);
  ar.get(m.segment_sizes);
  ar.get(m.entries);
  if (!m.check_invariants()) {
    throw std::runtime_error("Manifest: entries do not tile the segments");
  }
}

// Serialized size estimate used for replication byte accounting.
[[nodiscard]] inline std::uint64_t manifest_wire_bytes(const Manifest& m) {
  return sizeof m.owner_rank + sizeof m.epoch + 16 +
         m.segment_sizes.size() * sizeof(std::uint64_t) +
         m.entries.size() * sizeof(ManifestEntry);
}

}  // namespace collrep::chunk
