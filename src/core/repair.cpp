#include "core/repair.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <stdexcept>

#include "simmpi/collectives.hpp"

namespace collrep::core {

void ReplicaHealthSet::add_local(const hash::Fingerprint& fp,
                                 std::uint32_t length, int rank) {
  Entry& e = entries_[fp];
  e.count += 1;
  e.length = length;
  if (static_cast<int>(e.count) >= k_) {
    e.holders.clear();
    e.holders.shrink_to_fit();
  } else {
    e.holders.insert(
        std::lower_bound(e.holders.begin(), e.holders.end(), rank), rank);
  }
}

std::uint64_t ReplicaHealthSet::merge_from(ReplicaHealthSet&& other) {
  std::uint64_t scanned = 0;
  for (auto& [fp, in] : other.entries_) {
    ++scanned;
    auto [it, inserted] = entries_.try_emplace(fp, std::move(in));
    if (inserted) continue;
    Entry& e = it->second;
    e.count += in.count;
    if (static_cast<int>(e.count) >= k_) {
      e.holders.clear();
      e.holders.shrink_to_fit();
    } else {
      std::vector<std::int32_t> merged;
      merged.reserve(e.holders.size() + in.holders.size());
      std::merge(e.holders.begin(), e.holders.end(), in.holders.begin(),
                 in.holders.end(), std::back_inserter(merged));
      e.holders = std::move(merged);
    }
  }
  other.entries_.clear();
  return scanned;
}

void save(simmpi::OArchive& ar, const ReplicaHealthSet& s) {
  ar.put(s.k_);
  ar.put_size(s.entries_.size());
  for (const auto& [fp, e] : s.entries_) {
    ar.put(fp);
    ar.put(e.count);
    ar.put(e.length);
    ar.put(static_cast<std::uint16_t>(e.holders.size()));
    for (std::int32_t r : e.holders) ar.put(r);
  }
}

void load(simmpi::IArchive& ar, ReplicaHealthSet& s) {
  // Encoded entry: fingerprint, count, length, u16 holder count, holders.
  constexpr std::size_t kMinEntryBytes = hash::Fingerprint::kBytes +
                                         2 * sizeof(std::uint32_t) +
                                         sizeof(std::uint16_t);
  ar.get(s.k_);
  const std::size_t count = ar.get_size();
  if (count > ar.remaining() / kMinEntryBytes) {
    throw std::runtime_error("ReplicaHealthSet: entry count exceeds buffer");
  }
  s.entries_.clear();
  s.entries_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    hash::Fingerprint fp;
    ar.get(fp);
    ReplicaHealthSet::Entry e;
    ar.get(e.count);
    ar.get(e.length);
    if (e.count == 0) {
      throw std::runtime_error("ReplicaHealthSet: zero replica count");
    }
    const auto nholders = ar.get<std::uint16_t>();
    if (nholders > ar.remaining() / sizeof(std::int32_t)) {
      throw std::runtime_error("ReplicaHealthSet: holder count exceeds buffer");
    }
    e.holders.resize(nholders);
    for (std::size_t j = 0; j < e.holders.size(); ++j) {
      ar.get(e.holders[j]);
      if (j > 0 && e.holders[j] <= e.holders[j - 1]) {
        throw std::runtime_error(
            "ReplicaHealthSet: holders not strictly ascending");
      }
    }
    if (!s.entries_.emplace(fp, std::move(e)).second) {
      throw std::runtime_error("ReplicaHealthSet: duplicate fingerprint");
    }
  }
}

ReplicaHealthSet allreduce_health(simmpi::Comm& comm,
                                  const chunk::ChunkStore& store, int k) {
  const auto& cluster = comm.cluster();
  ReplicaHealthSet mine(k);
  if (!store.failed()) {
    store.for_each_chunk([&](const hash::Fingerprint& fp,
                             std::uint32_t length) {
      mine.add_local(fp, length, comm.rank());
    });
    comm.charge(static_cast<double>(mine.size()) *
                cluster.merge_entry_cost_s);
  }
  return simmpi::allreduce(
      comm, std::move(mine),
      [&comm, &cluster](ReplicaHealthSet a, ReplicaHealthSet b) {
        const std::uint64_t scanned = a.merge_from(std::move(b));
        comm.charge(static_cast<double>(scanned) *
                    cluster.merge_entry_cost_s);
        return a;
      });
}

ShortfallPlan plan_shortfall(const ReplicaHealthSet& health, int keff,
                             std::span<const int> alive_ranks,
                             bool payload_mode) {
  ShortfallPlan plan;
  plan.payload_mode = payload_mode;
  std::vector<std::pair<hash::Fingerprint, const ReplicaHealthSet::Entry*>>
      deficits;
  for (const auto& [fp, e] : health.entries()) {
    if (static_cast<int>(e.count) >= keff) {
      plan.satisfied_chunks += 1;
      plan.satisfied_bytes += e.length;
    } else {
      deficits.emplace_back(fp, &e);
    }
  }
  std::sort(deficits.begin(), deficits.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  // Next free window offset per receiver (receivers are alive ranks).
  std::vector<std::uint64_t> window_bytes(
      alive_ranks.empty() ? 0 : static_cast<std::size_t>(alive_ranks.back()) + 1,
      0);
  std::size_t cursor = 0;
  for (const auto& [fp, e] : deficits) {
    plan.deficit_chunks += 1;
    plan.deficit_bytes += e->length;
    const int need = keff - static_cast<int>(e->count);
    const std::size_t slot_bytes =
        kRecordHeaderBytes + (payload_mode ? e->length : 0);
    int picked = 0;
    std::size_t seen = 0;
    std::size_t si = 0;
    while (picked < need && seen < alive_ranks.size()) {
      const int r = alive_ranks[cursor % alive_ranks.size()];
      ++cursor;
      ++seen;
      if (std::binary_search(e->holders.begin(), e->holders.end(), r)) {
        continue;
      }
      ShortfallSend s;
      s.fp = fp;
      s.length = e->length;
      s.sender = e->holders[si++ % e->holders.size()];
      s.receiver = r;
      s.offset = window_bytes[static_cast<std::size_t>(r)];
      window_bytes[static_cast<std::size_t>(r)] += slot_bytes;
      plan.sends.push_back(s);
      plan.shipped_bytes += e->length;
      ++picked;
    }
  }
  return plan;
}

ShipStats ship_shortfall(simmpi::Comm& comm, chunk::ChunkStore& store,
                         const ShortfallPlan& plan, const char* fault_point) {
  const int rank = comm.rank();
  const auto& cluster = comm.cluster();
  const auto record_bytes = [&plan](const ShortfallSend& s) {
    return kRecordHeaderBytes + (plan.payload_mode ? s.length : 0);
  };
  std::uint64_t window_bytes = 0;
  for (const ShortfallSend& s : plan.sends) {
    if (s.receiver == rank) {
      window_bytes = std::max(window_bytes, s.offset + record_bytes(s));
    }
  }

  ShipStats stats;
  simmpi::Window win =
      comm.win_create(static_cast<std::size_t>(window_bytes));
  std::vector<std::uint8_t> record;
  for (const ShortfallSend& s : plan.sends) {
    if (s.sender != rank) continue;
    record.assign(record_bytes(s), 0);
    std::memcpy(record.data(), s.fp.bytes().data(), hash::Fingerprint::kBytes);
    std::memcpy(record.data() + hash::Fingerprint::kBytes, &s.length,
                sizeof s.length);
    if (plan.payload_mode) {
      const auto payload = store.get(s.fp);
      if (!payload.has_value()) {
        throw std::logic_error(
            "ship_shortfall: health set names this rank as holder of a "
            "chunk its store does not have");
      }
      std::memcpy(record.data() + kRecordHeaderBytes, payload->data(),
                  payload->size());
    }
    win.put(s.receiver, static_cast<std::size_t>(s.offset), record,
            kRecordHeaderBytes + s.length);
    ++stats.sent_chunks;
    stats.sent_bytes += s.length;
  }
  comm.fault_point(fault_point);
  // Final epoch of the shipping window: no RMA follows.
  win.fence(simmpi::kFenceNoSucceed);

  const auto region = win.local();
  for (const ShortfallSend& s : plan.sends) {
    if (s.receiver != rank || store.failed()) continue;
    if (plan.payload_mode) {
      store.put(s.fp, std::span<const std::uint8_t>{
                          region.data() + s.offset + kRecordHeaderBytes,
                          s.length});
    } else {
      store.put_accounted(s.fp, s.length);
    }
    ++stats.recv_chunks;
    stats.recv_bytes += s.length;
  }
  win.free();
  comm.charge(static_cast<double>(stats.recv_bytes) /
                  cluster.mem_bandwidth_bps +
              static_cast<double>(stats.recv_bytes) / cluster.hdd_write_bps);
  return stats;
}

RepairStats repair_replicas(simmpi::Comm& comm,
                            std::span<chunk::ChunkStore* const> stores,
                            int k) {
  if (k < 1) throw std::invalid_argument("repair_replicas: K must be >= 1");
  const int n = comm.size();
  const int rank = comm.rank();
  if (static_cast<int>(stores.size()) != n) {
    throw std::invalid_argument(
        "repair_replicas: stores span must have one entry per rank");
  }
  const int kmax = simmpi::allreduce_max(comm, k);
  const int kmin =
      simmpi::allreduce(comm, k, [](int a, int b) { return a < b ? a : b; });
  if (kmax != kmin) {
    throw std::invalid_argument("repair_replicas: ranks disagree on K");
  }
  chunk::ChunkStore& store = *stores[static_cast<std::size_t>(rank)];
  const auto& cluster = comm.cluster();

  comm.fault_point("repair.pre");
  comm.barrier();
  const double t0 = comm.clock().now();
  if (auto* t = comm.obs()) {
    t->event(obs::EventKind::kPhaseBegin, t0, "repair");
  }

  RepairStats stats;
  stats.rank = rank;
  stats.k_requested = k;

  // ---- Audit: who is alive, and who holds what ------------------------------
  const auto alive_flags = simmpi::allgather(
      comm, static_cast<std::uint8_t>(store.failed() ? 0 : 1));
  std::vector<int> alive_ranks;
  for (int r = 0; r < n; ++r) {
    if (alive_flags[static_cast<std::size_t>(r)] != 0) alive_ranks.push_back(r);
  }
  stats.alive_stores = static_cast<int>(alive_ranks.size());
  const int keff = std::min(k, stats.alive_stores);
  stats.k_effective = keff;

  if (!store.failed()) {
    store.for_each_chunk([&](const hash::Fingerprint&, std::uint32_t length) {
      ++stats.audited_chunks;
      stats.audited_bytes += length;
    });
    // The audit streams the chunk index, not the payloads.
    comm.charge(static_cast<double>(stats.audited_chunks) *
                cluster.merge_entry_cost_s);
  }

  const ReplicaHealthSet health = allreduce_health(comm, store, keff);
  stats.global_chunks = health.size();

  // Lost chunks: manifest-referenced fingerprints with no replica left on
  // any alive store.  Several ranks can hold replicas of the same manifest,
  // so the per-rank findings are merged (map union) before counting.
  std::map<hash::Fingerprint, std::uint32_t> lost_mine;
  int my_min = keff;
  if (!store.failed()) {
    for (int owner = 0; owner < n; ++owner) {
      const chunk::Manifest* man = store.manifest_for(owner);
      if (man == nullptr) continue;
      for (const auto& entry : man->entries) {
        const ReplicaHealthSet::Entry* h = health.find(entry.fp);
        if (h == nullptr) {
          lost_mine.emplace(entry.fp, entry.length);
          my_min = 0;
        } else {
          my_min = std::min(my_min,
                            std::min(static_cast<int>(h->count), keff));
        }
      }
    }
  }
  const auto lost_all = simmpi::allreduce(
      comm, std::move(lost_mine),
      [](std::map<hash::Fingerprint, std::uint32_t> a,
         std::map<hash::Fingerprint, std::uint32_t> b) {
        a.merge(b);
        return a;
      });
  stats.lost_chunks = lost_all.size();
  for (const auto& [fp, len] : lost_all) stats.lost_bytes += len;
  stats.k_achieved_min_before = simmpi::allreduce(
      comm, my_min, [](int a, int b) { return a < b ? a : b; });

  // ---- Plan and exchange: ship exactly the shortfall ------------------------
  const ShortfallPlan plan =
      plan_shortfall(health, keff, alive_ranks,
                     store.mode() == chunk::StoreMode::kPayload);
  comm.charge(static_cast<double>(plan.deficit_chunks) *
              cluster.merge_entry_cost_s);
  stats.under_replicated_chunks = plan.deficit_chunks;
  stats.under_replicated_bytes = plan.deficit_bytes;
  stats.resent_chunks = plan.sends.size();
  stats.resent_bytes = plan.shipped_bytes;

  const ShipStats shipped =
      ship_shortfall(comm, store, plan, "repair.exchange.mid");
  stats.sent_chunks = shipped.sent_chunks;
  stats.sent_bytes = shipped.sent_bytes;
  stats.recv_chunks = shipped.recv_chunks;
  stats.recv_bytes = shipped.recv_bytes;

  // After the top-up every under-replicated fingerprint is back at K_eff;
  // only chunks with zero surviving replicas stay below it.
  stats.k_achieved_min_after = stats.lost_chunks > 0 ? 0 : keff;

  comm.barrier();
  stats.total_time_s = comm.clock().now() - t0;

  if (auto* t = comm.obs()) {
    t->event(obs::EventKind::kPhaseEnd, comm.clock().now(), "repair");
    auto& m = *t->metrics;
    m.add("repair.audited_chunks", stats.audited_chunks);
    m.add("repair.audited_bytes", stats.audited_bytes);
    m.add("repair.sent_chunks", stats.sent_chunks);
    m.add("repair.sent_bytes", stats.sent_bytes);
    m.add("repair.recv_chunks", stats.recv_chunks);
    m.add("repair.recv_bytes", stats.recv_bytes);
    if (rank == 0) {
      m.add("repair.count");
      m.add("repair.under_replicated_chunks", stats.under_replicated_chunks);
      m.add("repair.under_replicated_bytes", stats.under_replicated_bytes);
      m.add("repair.resent_chunks", stats.resent_chunks);
      m.add("repair.resent_bytes", stats.resent_bytes);
      m.add("repair.lost_chunks", stats.lost_chunks);
      m.add("repair.lost_bytes", stats.lost_bytes);
      m.set("repair.last.alive_stores",
            static_cast<double>(stats.alive_stores));
      m.set("repair.last.k_achieved_min_before",
            static_cast<double>(stats.k_achieved_min_before));
      m.set("repair.last.k_achieved_min_after",
            static_cast<double>(stats.k_achieved_min_after));
      m.set("repair.last.resent_bytes",
            static_cast<double>(stats.resent_bytes));
      m.set("repair.last.total_time_s", stats.total_time_s);
    }
  }
  return stats;
}

}  // namespace collrep::core
