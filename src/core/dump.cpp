#include "core/dump.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include <unordered_set>

#include "core/local_dedup.hpp"
#include "core/planner.hpp"
#include "core/repair.hpp"

namespace collrep::core {

namespace {

constexpr int kManifestTagBase = 6 << 20;

struct PhaseClock {
  PhaseClock(simmpi::Comm& c, const char* first_phase) : comm(c) {
    comm.barrier();
    mark = comm.clock().now();
    start = mark;
    if (auto* t = comm.obs()) {
      // Wrapper span around the whole pipeline: collprof extracts the
      // critical path of each "dump" interval (DESIGN.md §11).
      t->event(obs::EventKind::kPhaseBegin, mark, "dump");
    }
    open(first_phase);
  }
  // Ends the current phase at a barrier so the recorded duration is the
  // bulk-synchronous (max-over-ranks) phase time; `next_phase` (static
  // lifetime, nullptr at the end of the pipeline) names the phase the
  // trace enters next.
  double lap(const char* next_phase = nullptr) {
    if (auto* t = comm.obs()) {
      // Recorded *before* the closing barrier: the span is this rank's own
      // work time, so the gap to the next kPhaseBegin is its barrier wait
      // and the spread across ranks is the phase's straggler skew.
      t->event(obs::EventKind::kPhaseEnd, comm.clock().now(), current);
    }
    comm.barrier();
    const double now = comm.clock().now();
    const double d = now - mark;
    mark = now;
    open(next_phase);
    if (next_phase == nullptr) {
      if (auto* t = comm.obs()) {
        t->event(obs::EventKind::kPhaseEnd, now, "dump");
      }
    }
    return d;
  }
  void open(const char* phase) {
    current = phase;
    if (phase == nullptr) return;
    if (auto* t = comm.obs()) {
      t->event(obs::EventKind::kPhaseBegin, comm.clock().now(), phase);
    }
  }
  simmpi::Comm& comm;
  double start;
  double mark;
  const char* current = nullptr;
};

}  // namespace

std::string_view to_string(Strategy s) noexcept {
  switch (s) {
    case Strategy::kNoDedup:
      return "no-dedup";
    case Strategy::kLocalDedup:
      return "local-dedup";
    case Strategy::kCollDedup:
      return "coll-dedup";
  }
  return "unknown";
}

Dumper::Dumper(simmpi::Comm& comm, chunk::ChunkStore& store, DumpConfig config)
    : comm_(comm), store_(store), config_(config) {
  if (config_.chunk_bytes == 0) {
    throw std::invalid_argument("Dumper: chunk_bytes must be positive");
  }
  if (config_.threshold_f == 0) {
    throw std::invalid_argument("Dumper: threshold F must be positive");
  }
}

DumpStats Dumper::dump_output(const chunk::Dataset& buffer, int k) {
  if (k < 1) throw std::invalid_argument("dump_output: K must be >= 1");
  const int n = comm_.size();
  const int rank = comm_.rank();
  // All ranks must agree on K (collective contract).
  const int kmax = simmpi::allreduce_max(comm_, k);
  const int kmin = simmpi::allreduce(comm_, k, [](int a, int b) {
    return a < b ? a : b;
  });
  if (kmax != kmin) {
    throw std::invalid_argument("dump_output: ranks disagree on K");
  }
  const int keff = std::min(k, n);
  if (!config_.payload_exchange &&
      store_.mode() == chunk::StoreMode::kPayload) {
    throw std::invalid_argument(
        "dump_output: metadata-only exchange requires an accounting-mode "
        "store (received payloads are not transferred)");
  }
  const auto& cluster = comm_.cluster();
  const auto& hasher = hash::hasher_for(config_.hash_kind);

  DumpStats stats;
  stats.rank = rank;
  stats.k_requested = k;
  stats.k_effective = keff;

  PhaseClock phase(comm_, "hash");
  comm_.fault_point("dump.hash", config_.epoch);

  // ---- Phase 1: chunking, fingerprinting, local dedup ----------------------
  const bool cdc = config_.chunking == ChunkingMode::kContentDefined;
  const std::size_t slot_payload =
      cdc ? config_.cdc.max_bytes : config_.chunk_bytes;
  const chunk::Chunker chunker =
      cdc ? chunk::Chunker(buffer, slot_payload,
                           chunk::content_defined_refs(buffer, config_.cdc))
          : chunk::Chunker(buffer, config_.chunk_bytes);
  if (cdc && config_.strategy != Strategy::kNoDedup) {
    // Rolling-hash boundary detection streams over every byte.
    comm_.charge(static_cast<double>(buffer.total_bytes()) /
                 cluster.cdc_bps);
  }
  LocalDedupResult local = local_dedup(chunker, hasher);
  stats.dataset_bytes = local.total_bytes;
  stats.chunk_count = chunker.count();
  stats.local_unique_chunks = local.unique_chunks.size();
  stats.local_unique_bytes = local.unique_bytes;
  if (config_.strategy != Strategy::kNoDedup) {
    // no-dedup streams raw data without hashing in the paper; the
    // fingerprints it still computes here are free bookkeeping for the
    // content-addressed store and are not charged to its clock.
    comm_.charge(static_cast<double>(local.total_bytes) /
                     hasher.modeled_bytes_per_second() +
                 static_cast<double>(chunker.count()) *
                     cluster.chunk_overhead_s);
  }
  stats.phases.hash_s = phase.lap("reduction");
  comm_.fault_point("dump.reduction", config_.epoch);

  // ---- Phase 2: collective reduction of fingerprint frequencies ------------
  BoundedFpSet gview;
  if (config_.strategy == Strategy::kCollDedup) {
    // Building the leaf streams this rank's unique fingerprints.
    comm_.charge(static_cast<double>(local.unique_chunks.size()) *
                 cluster.merge_entry_cost_s);
    gview = reduce_global_view(comm_, local, config_.threshold_f, keff);
    stats.gview_entries = static_cast<std::uint32_t>(gview.size());
  }
  stats.phases.reduction_s = phase.lap("planning");
  comm_.fault_point("dump.planning", config_.epoch);

  // ---- Phase 3: load vectors, allgather, shuffle, offsets -------------------
  ReplicaPlan plan;
  std::vector<std::uint32_t> full_lengths;
  switch (config_.strategy) {
    case Strategy::kNoDedup: {
      full_lengths.reserve(chunker.count());
      for (std::size_t i = 0; i < chunker.count(); ++i) {
        full_lengths.push_back(chunker.ref(i).length);
      }
      plan = plan_full(full_lengths, keff);
      break;
    }
    case Strategy::kLocalDedup:
      plan = plan_local_dedup(local, chunker, keff);
      break;
    case Strategy::kCollDedup:
      plan = plan_collective(local, chunker, gview, rank, keff, nullptr);
      break;
  }

  auto gathered = simmpi::allgather(comm_, plan.load);
  SendMatrix mat(n, keff);
  for (int r = 0; r < n; ++r) {
    mat.set_row(r, gathered[static_cast<std::size_t>(r)]);
  }

  const bool shuffled =
      config_.strategy == Strategy::kCollDedup && config_.rank_shuffle;
  std::vector<int> shuffle =
      shuffled ? rank_shuffle(mat, keff) : identity_shuffle(n);
  if (config_.node_aware_partners && keff > 1) {
    shuffle = make_node_disjoint(std::move(shuffle), keff, cluster);
  }
  stats.same_node_partners = static_cast<std::uint32_t>(
      same_node_partner_count(shuffle, keff, cluster));
  std::vector<int> position_of = invert_shuffle(shuffle);
  // Sorting N ranks is the only super-linear planning step.
  comm_.charge(static_cast<double>(n) *
               std::max(1.0, std::log2(static_cast<double>(n))) * 5e-9);

  if (config_.strategy == Strategy::kCollDedup &&
      config_.avoid_designated_targets && keff > 1) {
    // Partner identities are now known: rebuild the plan steering top-up
    // replicas away from designated partners, and re-share the loads so
    // the window offsets still agree (DESIGN.md §1, deviation 3).
    const ShuffleContext ctx{shuffle, position_of};
    plan = plan_collective(local, chunker, gview, rank, keff, &ctx);
    gathered = simmpi::allgather(comm_, plan.load);
    for (int r = 0; r < n; ++r) {
      mat.set_row(r, gathered[static_cast<std::size_t>(r)]);
    }
  }

  stats.owned_unique_bytes = plan.owned_unique_bytes;
  stats.discarded_chunks = plan.discarded_chunks;
  stats.discarded_bytes = plan.discarded_bytes;
  stats.skip_fallbacks = plan.skip_fallbacks;
  stats.phases.planning_s = phase.lap("exchange");
  comm_.fault_point("dump.exchange", config_.epoch);

  // ---- Phase 4: single-sided chunk exchange --------------------------------
  const std::size_t slot_bytes =
      kRecordHeaderBytes + (config_.payload_exchange ? slot_payload : 0);
  const int my_pos = position_of[static_cast<std::size_t>(rank)];
  const std::uint64_t my_window_slots =
      keff > 1 ? window_chunks(mat, shuffle, my_pos) : 0;

  simmpi::Window win = comm_.win_create(
      static_cast<std::size_t>(my_window_slots) * slot_bytes);

  std::vector<std::uint64_t> slot_base(static_cast<std::size_t>(keff), 0);
  std::vector<std::uint64_t> slot_next(static_cast<std::size_t>(keff), 0);
  for (int p = 1; p < keff; ++p) {
    slot_base[static_cast<std::size_t>(p)] =
        put_offset_chunks(mat, shuffle, my_pos, p);
  }

  std::vector<std::uint8_t> record(slot_bytes, 0);
  for (const ChunkAssignment& a : plan.assignments) {
    if (a.send_slots.empty()) continue;
    const std::size_t chunk_index =
        config_.strategy == Strategy::kNoDedup
            ? a.chunk
            : local.unique_chunks[a.chunk];
    const auto payload = chunker.bytes(chunk_index);
    const auto& fp = local.chunk_fps[chunk_index];
    const auto len = static_cast<std::uint32_t>(payload.size());

    std::memcpy(record.data(), fp.bytes().data(), hash::Fingerprint::kBytes);
    std::memcpy(record.data() + hash::Fingerprint::kBytes, &len, sizeof len);
    if (config_.payload_exchange) {
      std::memcpy(record.data() + kRecordHeaderBytes, payload.data(),
                  payload.size());
    }

    for (const std::uint8_t p : a.send_slots) {
      const int target = partner_at(shuffle, my_pos, p);
      const std::uint64_t slot = slot_base[p] + slot_next[p]++;
      win.put(target, static_cast<std::size_t>(slot) * slot_bytes, record,
              kRecordHeaderBytes + payload.size());
      ++stats.sent_chunks;
      stats.sent_bytes += payload.size();
    }
  }
  for (int p = 1; p < keff; ++p) {
    if (slot_next[static_cast<std::size_t>(p)] !=
        mat.at(rank, p)) {
      throw std::logic_error(
          "dump_output: send plan disagrees with advertised load");
    }
  }

  // Post-put, pre-fence: the puts are already in flight when this fires,
  // which is exactly the mid-exchange store loss the degraded path must
  // survive (the victim's outgoing replicas land, its incoming ones drop).
  comm_.fault_point("dump.exchange.mid", config_.epoch);
  // No RMA follows the exchange epoch; declaring it lets an attached
  // checker flag any stray put between here and the window free.
  win.fence(simmpi::kFenceNoSucceed);

  // Parse the received records and stage them for local commit.  A dead
  // store drops its incoming replicas on the floor (counted, not thrown):
  // the wire transfer already happened, only the device write is skipped.
  const bool commit_received = !store_.failed();
  const auto region = win.local();
  for (std::uint64_t s = 0; s < my_window_slots; ++s) {
    const std::uint8_t* rec = region.data() + s * slot_bytes;
    hash::Fingerprint fp{
        std::span<const std::uint8_t>{rec, hash::Fingerprint::kBytes}};
    std::uint32_t len = 0;
    std::memcpy(&len, rec + hash::Fingerprint::kBytes, sizeof len);
    ++stats.recv_chunks;
    stats.recv_bytes += len;
    if (!commit_received) {
      ++stats.commit_skipped_chunks;
      stats.commit_skipped_bytes += len;
      continue;
    }
    if (config_.payload_exchange) {
      store_.put(fp,
                 std::span<const std::uint8_t>{rec + kRecordHeaderBytes, len});
    } else {
      store_.put_accounted(fp, len);
    }
    // The device writes the incoming replica stream as-is; content
    // addressing in ChunkStore is an index property, not a write saving.
    ++stats.stored_chunks;
    stats.stored_bytes += len;
  }
  comm_.charge(static_cast<double>(stats.recv_bytes) /
               comm_.cluster().mem_bandwidth_bps);
  if (auto* t = comm_.obs()) {
    t->event(obs::EventKind::kStoreCommit, comm_.clock().now(),
             "commit_received", stats.recv_bytes, stats.recv_chunks);
  }
  win.free();

  // Manifest replication (small, point-to-point; same partner ring).
  chunk::Manifest manifest;
  manifest.owner_rank = rank;
  manifest.epoch = config_.epoch;
  manifest.segment_sizes.reserve(buffer.segment_count());
  for (std::size_t i = 0; i < buffer.segment_count(); ++i) {
    manifest.segment_sizes.push_back(buffer.segment(i).size());
  }
  manifest.entries.reserve(chunker.count());
  for (std::size_t i = 0; i < chunker.count(); ++i) {
    manifest.entries.push_back(
        chunk::ManifestEntry{local.chunk_fps[i], chunker.ref(i).length});
  }
  stats.manifest_bytes = chunk::manifest_wire_bytes(manifest);
  if (!store_.failed()) store_.put_manifest(manifest);
  if (config_.replicate_manifest && keff > 1) {
    // A rank with a dead store still sends its manifest (the data lives in
    // memory) and still drains its incoming ones so partners don't block.
    for (int p = 1; p < keff; ++p) {
      comm_.send_value(partner_at(shuffle, my_pos, p), kManifestTagBase + p,
                       manifest);
    }
    for (int p = 1; p < keff; ++p) {
      const int src =
          shuffle[static_cast<std::size_t>(((my_pos - p) % n + n) % n)];
      auto incoming =
          comm_.recv_value<chunk::Manifest>(src, kManifestTagBase + p);
      if (!store_.failed()) store_.put_manifest(std::move(incoming));
    }
  }
  stats.phases.exchange_s = phase.lap("storage");

  // ---- Phase 5: commit designated + kept chunks to the local device --------
  comm_.fault_point("dump.commit", config_.epoch);
  const std::uint64_t stored_before_local = stats.stored_bytes;
  const bool commit_local = !store_.failed();
  for (const ChunkAssignment& a : plan.assignments) {
    if (!a.store_local) continue;
    const std::size_t chunk_index =
        config_.strategy == Strategy::kNoDedup
            ? a.chunk
            : local.unique_chunks[a.chunk];
    const auto payload = chunker.bytes(chunk_index);
    const auto& fp = local.chunk_fps[chunk_index];
    if (!commit_local) {
      ++stats.commit_skipped_chunks;
      stats.commit_skipped_bytes += payload.size();
      continue;
    }
    if (store_.mode() == chunk::StoreMode::kPayload) {
      store_.put(fp, payload);
    } else {
      store_.put_accounted(fp, static_cast<std::uint32_t>(payload.size()));
    }
    // Each kept assignment is one device write (plan_full keeps every
    // chunk including local duplicates, the dedup plans keep uniques).
    ++stats.stored_chunks;
    stats.stored_bytes += payload.size();
  }

  if (auto* t = comm_.obs()) {
    t->event(obs::EventKind::kStoreCommit, comm_.clock().now(),
             "commit_local", stats.stored_bytes - stored_before_local);
  }

  // The HDD is shared by all ranks of a node: the phase lasts as long as
  // the node with the most bytes to write.
  const std::uint64_t my_store_total = stats.stored_bytes +
                                       stats.manifest_bytes;
  const auto all_store = simmpi::allgather(comm_, my_store_total);
  std::vector<std::uint64_t> node_bytes(
      static_cast<std::size_t>(cluster.node_count(n)), 0);
  for (int r = 0; r < n; ++r) {
    node_bytes[static_cast<std::size_t>(cluster.node_of(r))] +=
        all_store[static_cast<std::size_t>(r)];
  }
  comm_.charge(static_cast<double>(
                   node_bytes[static_cast<std::size_t>(comm_.node())]) /
               cluster.hdd_write_bps);

  // Degraded-mode audit: one cheap liveness allgather per dump; the
  // heavier health allreduce runs only when a store actually died, so the
  // healthy path keeps its put/window counters bit-identical.
  stats.store_alive = !store_.failed();
  const auto alive_flags = simmpi::allgather(
      comm_, static_cast<std::uint8_t>(stats.store_alive ? 1 : 0));
  int alive_count = 0;
  for (const auto f : alive_flags) alive_count += f;
  stats.k_achieved_min = keff;
  if (alive_count < n) {
    stats.degraded = true;
    // Replica health over everything the surviving stores hold: naturally
    // distributed duplicates and replicas from earlier epochs count toward
    // K exactly as the repair scrub counts them.
    const ReplicaHealthSet health = allreduce_health(comm_, store_, keff);
    std::unordered_set<hash::Fingerprint, hash::FingerprintHash> seen;
    int my_min = keff;
    for (const auto& entry : manifest.entries) {
      if (!seen.insert(entry.fp).second) continue;
      const ReplicaHealthSet::Entry* h = health.find(entry.fp);
      const int achieved =
          h == nullptr ? 0 : std::min(static_cast<int>(h->count), keff);
      my_min = std::min(my_min, achieved);
      if (achieved < keff) {
        ++stats.under_replicated_chunks;
        stats.under_replicated_bytes += entry.length;
      }
    }
    stats.k_achieved_min = my_min;
  }
  stats.phases.storage_s = phase.lap();

  stats.total_time_s = comm_.clock().now() - phase.start;

  // Publish into the shared registry (names are aggregates over all ranks
  // and dumps: each rank adds its own contribution per dump).
  if (auto* t = comm_.obs()) {
    auto& m = *t->metrics;
    if (rank == 0) m.add("dump.count");
    m.add("dump.dataset_bytes", stats.dataset_bytes);
    m.add("dump.chunks", stats.chunk_count);
    m.add("dump.local_unique_bytes", stats.local_unique_bytes);
    m.add("dump.owned_unique_bytes", stats.owned_unique_bytes);
    m.add("dump.discarded_bytes", stats.discarded_bytes);
    m.add("dump.sent_chunks", stats.sent_chunks);
    m.add("dump.sent_bytes", stats.sent_bytes);
    m.add("dump.recv_chunks", stats.recv_chunks);
    m.add("dump.recv_bytes", stats.recv_bytes);
    m.add("dump.stored_bytes", stats.stored_bytes);
    m.add("dump.manifest_bytes", stats.manifest_bytes);
    if (stats.degraded) {
      if (rank == 0) m.add("dump.degraded_count");
      m.add("dump.under_replicated_chunks", stats.under_replicated_chunks);
      m.add("dump.under_replicated_bytes", stats.under_replicated_bytes);
      m.add("dump.commit_skipped_chunks", stats.commit_skipped_chunks);
      m.add("dump.commit_skipped_bytes", stats.commit_skipped_bytes);
    }
    m.observe("dump.rank_sent_bytes", static_cast<double>(stats.sent_bytes));
    m.observe("dump.rank_recv_bytes", static_cast<double>(stats.recv_bytes));
    if (rank == 0) {
      m.set("dump.last.total_time_s", stats.total_time_s);
      m.observe("dump.total_time_s", stats.total_time_s);
    }
  }
  return stats;
}

GlobalDumpStats Dumper::collect(simmpi::Comm& comm, const DumpStats& mine) {
  GlobalDumpStats g;
  g.total_dataset_bytes = simmpi::allreduce_sum(comm, mine.dataset_bytes);
  g.total_unique_bytes = simmpi::allreduce_sum(comm, mine.owned_unique_bytes);
  g.total_sent_bytes = simmpi::allreduce_sum(comm, mine.sent_bytes);
  g.total_stored_bytes = simmpi::allreduce_sum(comm, mine.stored_bytes);
  g.max_sent_bytes = simmpi::allreduce_max(comm, mine.sent_bytes);
  g.max_recv_bytes = simmpi::allreduce_max(comm, mine.recv_bytes);
  g.avg_sent_bytes =
      static_cast<double>(g.total_sent_bytes) / comm.size();
  g.completion_time_s = simmpi::allreduce_max(comm, mine.total_time_s);
  g.min_k_achieved = simmpi::allreduce(
      comm, mine.k_achieved_min, [](int a, int b) { return a < b ? a : b; });
  g.total_under_replicated_bytes =
      simmpi::allreduce_sum(comm, mine.under_replicated_bytes);
  g.max_phases.hash_s = simmpi::allreduce_max(comm, mine.phases.hash_s);
  g.max_phases.reduction_s =
      simmpi::allreduce_max(comm, mine.phases.reduction_s);
  g.max_phases.planning_s =
      simmpi::allreduce_max(comm, mine.phases.planning_s);
  g.max_phases.exchange_s =
      simmpi::allreduce_max(comm, mine.phases.exchange_s);
  g.max_phases.storage_s = simmpi::allreduce_max(comm, mine.phases.storage_s);

  // Machine-readable mirror of the roll-up this call just computed (the
  // "dump.last.*" gauges track the most recent collect on any telemetry-
  // attached run; rank 0 writes so each value lands exactly once).
  if (auto* t = comm.obs(); t != nullptr && comm.rank() == 0) {
    auto& m = *t->metrics;
    m.set("dump.last.total_dataset_bytes",
          static_cast<double>(g.total_dataset_bytes));
    m.set("dump.last.total_unique_bytes",
          static_cast<double>(g.total_unique_bytes));
    m.set("dump.last.total_sent_bytes",
          static_cast<double>(g.total_sent_bytes));
    m.set("dump.last.total_stored_bytes",
          static_cast<double>(g.total_stored_bytes));
    m.set("dump.last.max_sent_bytes", static_cast<double>(g.max_sent_bytes));
    m.set("dump.last.max_recv_bytes", static_cast<double>(g.max_recv_bytes));
    m.set("dump.last.avg_sent_bytes", g.avg_sent_bytes);
    m.set("dump.last.completion_time_s", g.completion_time_s);
    m.set("dump.last.min_k_achieved", static_cast<double>(g.min_k_achieved));
    m.set("dump.last.under_replicated_bytes",
          static_cast<double>(g.total_under_replicated_bytes));
  }
  return g;
}

}  // namespace collrep::core
