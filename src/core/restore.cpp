#include "core/restore.hpp"

#include "simmpi/collectives.hpp"

namespace collrep::core {

namespace detail {

std::string manifest_lost_message(int rank, int consulted, int failed) {
  std::string out =
      "restore: no surviving manifest for rank " + std::to_string(rank);
  if (consulted >= 0) {
    out += " (" + std::to_string(consulted) + " store(s) consulted";
    if (failed >= 0) out += ", " + std::to_string(failed) + " failed";
    out += ')';
  }
  return out;
}

std::string chunk_lost_message(const hash::Fingerprint* fp, int owner_rank,
                               int consulted, int failed) {
  std::string out = "restore: chunk ";
  if (fp != nullptr) {
    out += fp->hex().substr(0, 12);
    out += "... ";
  }
  if (owner_rank >= 0) {
    out += "of rank " + std::to_string(owner_rank) + "'s dataset ";
  }
  out += "is not available on any surviving store";
  if (consulted >= 0) {
    out += " (" + std::to_string(consulted) + " store(s) consulted";
    if (failed >= 0) out += ", " + std::to_string(failed) + " failed";
    out += ')';
  }
  return out;
}

}  // namespace detail

namespace {

struct StoreScan {
  const chunk::Manifest* manifest = nullptr;
  int consulted = 0;  // alive stores examined
  int failed = 0;     // failed/absent stores skipped
};

StoreScan newest_manifest(std::span<chunk::ChunkStore* const> stores,
                          int rank) {
  StoreScan scan;
  for (const chunk::ChunkStore* store : stores) {
    if (store == nullptr || store->failed()) {
      ++scan.failed;
      continue;
    }
    ++scan.consulted;
    const chunk::Manifest* m = store->manifest_for(rank);
    if (m != nullptr && (scan.manifest == nullptr ||
                         m->epoch > scan.manifest->epoch)) {
      scan.manifest = m;
    }
  }
  return scan;
}

}  // namespace

RestoreResult restore_rank(std::span<chunk::ChunkStore* const> stores,
                           int rank) {
  if (rank < 0 || static_cast<std::size_t>(rank) >= stores.size()) {
    throw std::out_of_range("restore: rank outside store set");
  }
  const StoreScan scan = newest_manifest(stores, rank);
  const chunk::Manifest* manifest = scan.manifest;
  if (manifest == nullptr) {
    throw ManifestLostError(rank, scan.consulted, scan.failed);
  }

  if (!manifest->check_invariants()) {
    throw std::runtime_error("restore: rank " + std::to_string(rank) +
                             "'s manifest does not tile its segments");
  }

  RestoreResult out;
  out.segments.reserve(manifest->segment_sizes.size());
  for (const auto size : manifest->segment_sizes) {
    out.segments.emplace_back();
    out.segments.back().reserve(size);
  }

  chunk::ChunkStore* own = stores[static_cast<std::size_t>(rank)];
  const bool own_alive = own != nullptr && !own->failed();

  std::size_t seg = 0;
  for (const chunk::ManifestEntry& entry : manifest->entries) {
    // Advance to the segment this chunk belongs to (entries are in buffer
    // order; a segment is full when it reaches its manifest size).
    while (seg < out.segments.size() &&
           out.segments[seg].size() == manifest->segment_sizes[seg]) {
      ++seg;
    }
    if (seg == out.segments.size()) {
      throw std::runtime_error("restore: manifest entries exceed segments");
    }

    std::span<const std::uint8_t> payload;
    bool found = false;
    if (own_alive) {
      if (const auto p = own->get(entry.fp)) {
        payload = *p;
        found = true;
        ++out.chunks_from_own_store;
        out.bytes_from_own_store += p->size();
      }
    }
    if (!found) {
      for (chunk::ChunkStore* store : stores) {
        if (store == nullptr || store->failed() || store == own) continue;
        if (const auto p = store->get(entry.fp)) {
          payload = *p;
          found = true;
          ++out.chunks_from_remote_stores;
          out.bytes_from_remote_stores += p->size();
          break;
        }
      }
    }
    if (!found) {
      throw ChunkLostError(entry.fp, rank, scan.consulted, scan.failed);
    }
    if (payload.size() >
        manifest->segment_sizes[seg] - out.segments[seg].size()) {
      throw std::runtime_error("restore: chunk overruns its segment");
    }
    if (payload.size() != entry.length) {
      throw std::runtime_error("restore: chunk length mismatch (collision?)");
    }
    out.segments[seg].insert(out.segments[seg].end(), payload.begin(),
                             payload.end());
  }

  for (std::size_t s = 0; s < out.segments.size(); ++s) {
    if (out.segments[s].size() != manifest->segment_sizes[s]) {
      throw std::runtime_error("restore: segment size mismatch");
    }
  }
  return out;
}

std::pair<RestoreResult, CollectiveRestoreStats> restore_input(
    simmpi::Comm& comm, std::span<chunk::ChunkStore* const> stores) {
  const auto& cluster = comm.cluster();
  comm.barrier();
  const double t0 = comm.clock().now();

  RestoreResult result = restore_rank(stores, comm.rank());

  CollectiveRestoreStats stats;
  stats.local_bytes = result.bytes_from_own_store;
  stats.remote_bytes = result.bytes_from_remote_stores;

  // Local chunks stream off the node's HDD; remote chunks additionally
  // traverse the network.  HDDs are shared per node; remote reads are
  // attributed to the reader's node (a first-order approximation — the
  // serving partner is not tracked per chunk).
  const auto all_local = simmpi::allgather(comm, stats.local_bytes);
  const auto all_remote = simmpi::allgather(comm, stats.remote_bytes);
  const int n = comm.size();
  std::vector<std::uint64_t> node_read(
      static_cast<std::size_t>(cluster.node_count(n)), 0);
  for (int r = 0; r < n; ++r) {
    // Dense group rank -> world rank -> node: correct after a shrink.
    node_read[static_cast<std::size_t>(cluster.node_of(comm.world_of(r)))] +=
        all_local[static_cast<std::size_t>(r)] +
        all_remote[static_cast<std::size_t>(r)];
  }
  comm.charge(static_cast<double>(
                  node_read[static_cast<std::size_t>(comm.node())]) /
              cluster.hdd_read_bps);
  comm.charge(static_cast<double>(stats.remote_bytes) /
              cluster.net_bandwidth_bps);
  comm.barrier();
  stats.total_time_s = comm.clock().now() - t0;
  return {std::move(result), stats};
}

}  // namespace collrep::core
