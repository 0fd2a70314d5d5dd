#include "core/restore.hpp"

#include "simmpi/collectives.hpp"

namespace collrep::core {

namespace detail {

namespace {
std::string store_counts(int consulted, int failed) {
  return " (" + std::to_string(consulted) + " store(s) consulted, " +
         std::to_string(failed) + " failed)";
}
}  // namespace

std::string manifest_lost_message(int rank, int consulted, int failed) {
  return "restore: no surviving manifest for rank " + std::to_string(rank) +
         store_counts(consulted, failed);
}

std::string chunk_lost_message(const hash::Fingerprint& fp, int owner_rank,
                               int consulted, int failed) {
  return "restore: chunk " + fp.hex().substr(0, 12) + "... of rank " +
         std::to_string(owner_rank) +
         "'s dataset is not available on any surviving store" +
         store_counts(consulted, failed);
}

}  // namespace detail

ManifestScan newest_manifest(std::span<chunk::ChunkStore* const> stores,
                             int rank) {
  if (rank < 0 || static_cast<std::size_t>(rank) >= stores.size()) {
    throw std::out_of_range("restore: rank outside store set");
  }
  ManifestScan scan;
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

std::optional<FetchedChunk> fetch_replica(
    std::span<chunk::ChunkStore* const> stores, int rank,
    const hash::Fingerprint& fp) {
  const chunk::ChunkStore* own = stores[static_cast<std::size_t>(rank)];
  if (own != nullptr && !own->failed()) {
    if (const auto p = own->get(fp)) return FetchedChunk{*p, true};
  }
  for (const chunk::ChunkStore* store : stores) {
    if (store == nullptr || store->failed() || store == own) continue;
    if (const auto p = store->get(fp)) return FetchedChunk{*p, false};
  }
  return std::nullopt;
}

RestoreResult refill_segments(const ManifestScan& scan, int rank,
                              const PayloadSource& source) {
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

    const std::optional<FetchedChunk> hit = source(entry.fp);
    if (!hit.has_value()) {
      throw ChunkLostError(entry.fp, rank, scan.consulted, scan.failed);
    }
    const std::span<const std::uint8_t> payload = hit->payload;
    if (payload.size() >
        manifest->segment_sizes[seg] - out.segments[seg].size()) {
      throw std::runtime_error("restore: chunk overruns its segment");
    }
    if (payload.size() != entry.length) {
      throw std::runtime_error("restore: chunk length mismatch (collision?)");
    }
    if (hit->own) {
      ++out.chunks_from_own_store;
      out.bytes_from_own_store += payload.size();
    } else {
      ++out.chunks_from_remote_stores;
      out.bytes_from_remote_stores += payload.size();
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

RestoreResult restore_rank(std::span<chunk::ChunkStore* const> stores,
                           int rank) {
  return refill_segments(newest_manifest(stores, rank), rank,
                         [&](const hash::Fingerprint& fp) {
                           return fetch_replica(stores, rank, fp);
                         });
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
  comm.charge(static_cast<double>(comm.node_total(all_local) +
                                  comm.node_total(all_remote)) /
              cluster.hdd_read_bps);
  comm.charge(static_cast<double>(stats.remote_bytes) /
              cluster.net_bandwidth_bps);
  comm.barrier();
  stats.total_time_s = comm.clock().now() - t0;
  return {std::move(result), stats};
}

}  // namespace collrep::core
