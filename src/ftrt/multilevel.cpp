#include "ftrt/multilevel.hpp"

#include "core/local_dedup.hpp"

namespace collrep::ftrt {

PfsDumpStats pfs_dump(simmpi::Comm& comm, PfsStore& pfs,
                      const chunk::Dataset& buffer, std::size_t chunk_bytes,
                      hash::HashKind hash_kind, std::uint64_t epoch) {
  const auto& hasher = hash::hasher_for(hash_kind);
  comm.barrier();
  const double t0 = comm.clock().now();

  const chunk::Chunker chunker(buffer, chunk_bytes);
  const auto local = core::local_dedup(chunker, hasher);
  comm.charge(static_cast<double>(local.total_bytes) /
              hasher.modeled_bytes_per_second());

  PfsDumpStats stats;
  for (const auto chunk_index : local.unique_chunks) {
    const auto payload = chunker.bytes(chunk_index);
    pfs.put(local.chunk_fps[chunk_index], payload);
    stats.written_bytes += payload.size();
  }
  chunk::Manifest manifest;
  manifest.owner_rank = comm.rank();
  manifest.epoch = epoch;
  for (std::size_t i = 0; i < buffer.segment_count(); ++i) {
    manifest.segment_sizes.push_back(buffer.segment(i).size());
  }
  for (std::size_t i = 0; i < chunker.count(); ++i) {
    manifest.entries.push_back(
        chunk::ManifestEntry{local.chunk_fps[i], chunker.ref(i).length});
  }
  stats.written_bytes += chunk::manifest_wire_bytes(manifest);
  pfs.put_manifest(std::move(manifest));

  // The decoupled store ingests the *sum* of all ranks' writes at one
  // aggregate bandwidth — the scalability wall the paper's intro cites.
  const auto total = simmpi::allreduce_sum(comm, stats.written_bytes);
  comm.charge(pfs.model().request_latency_s +
              static_cast<double>(total) / pfs.model().aggregate_write_bps);
  comm.barrier();
  stats.total_time_s = comm.clock().now() - t0;

  if (auto* t = comm.obs()) {
    t->event(obs::EventKind::kStoreCommit, comm.clock().now(), "pfs_commit",
             stats.written_bytes);
    auto& m = *t->metrics;
    m.add("pfs.written_bytes", stats.written_bytes);
    if (comm.rank() == 0) {
      m.add("pfs.dumps");
      m.set("pfs.last.total_time_s", stats.total_time_s);
      m.set("pfs.last.total_written_bytes", static_cast<double>(total));
    }
  }
  return stats;
}

core::RestoreResult pfs_restore(const PfsStore& pfs, int rank) {
  const auto manifest = pfs.manifest_for(rank);
  // The PFS is one logical store: 1 consulted, 0 failed.
  const core::ManifestScan scan{
      manifest.has_value() ? &*manifest : nullptr, 1, 0};
  return core::refill_segments(
      scan, rank,
      [&](const hash::Fingerprint& fp) -> std::optional<core::FetchedChunk> {
        const auto payload = pfs.get(fp);
        if (!payload.has_value()) return std::nullopt;
        return core::FetchedChunk{*payload, false};
      });
}

MultiLevelStats MultiLevelCheckpoint::maybe_checkpoint(int iteration) {
  MultiLevelStats stats;
  const bool l3 = due(iteration, config_.l3_interval);
  const bool l2 = l3 || due(iteration, config_.l2_interval);
  const bool l1 = l2 || due(iteration, config_.l1_interval);
  if (!l1) return stats;

  stats.epoch = next_epoch_++;
  const auto snapshot = arena_.snapshot();
  const double t0 = comm_.clock().now();

  core::DumpConfig cfg = config_.dump;
  cfg.epoch = stats.epoch;
  if (l2) {
    // Partner replication (the paper's DUMP_OUTPUT).
    core::Dumper dumper(comm_, local_store_, cfg);
    (void)dumper.dump_output(snapshot, config_.replication_factor);
    stats.level = CheckpointLevel::kL2;
  } else {
    // L1: strictly local — every locally unique chunk stays on this
    // rank's device (coll-dedup would discard chunks covered remotely,
    // which breaks the level's isolation guarantee).
    core::DumpConfig l1_cfg = cfg;
    l1_cfg.strategy = core::Strategy::kLocalDedup;
    core::Dumper dumper(comm_, local_store_, l1_cfg);
    (void)dumper.dump_output(snapshot, 1);
    stats.level = CheckpointLevel::kL1;
  }
  if (l3) {
    (void)pfs_dump(comm_, pfs_, snapshot, cfg.chunk_bytes, cfg.hash_kind,
                   stats.epoch);
    stats.level = CheckpointLevel::kL3;
  }
  stats.time_s = comm_.clock().now() - t0;

  if (auto* t = comm_.obs(); t != nullptr && comm_.rank() == 0) {
    auto& m = *t->metrics;
    switch (stats.level) {
      case CheckpointLevel::kL1:
        m.add("mlc.l1_checkpoints");
        break;
      case CheckpointLevel::kL2:
        m.add("mlc.l2_checkpoints");
        break;
      case CheckpointLevel::kL3:
        m.add("mlc.l3_checkpoints");
        break;
      case CheckpointLevel::kNone:
        break;
    }
    m.observe("mlc.checkpoint_time_s", stats.time_s);
  }
  return stats;
}

core::RestoreResult MultiLevelCheckpoint::restore_latest(
    std::span<chunk::ChunkStore* const> stores) const {
  // Cheapest first: the local/partner path already prefers the own store;
  // fall back to the PFS when the replication level cannot serve.
  try {
    return core::restore_rank(stores, comm_.rank());
  } catch (const std::exception&) {
    return pfs_restore(pfs_, comm_.rank());
  }
}

}  // namespace collrep::ftrt
