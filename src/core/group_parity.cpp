#include "core/group_parity.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "core/fingerprint_set.hpp"
#include "core/local_dedup.hpp"
#include "simmpi/collectives.hpp"

namespace collrep::core {

namespace {

constexpr int kChainTag = 7 << 20;
constexpr int kParityTag = 8 << 20;
constexpr int kManifestTag = 9 << 20;
constexpr int kStreamTag = 10 << 20;

struct ParityHeader {
  std::uint64_t epoch = 0;
  std::int32_t group = 0;
  std::int32_t parity_index = 0;
  std::int32_t group_members = 0;
  std::uint64_t shard_len = 0;
};
static_assert(std::is_trivially_copyable_v<ParityHeader>);

std::vector<std::uint8_t> pack_parity(const ParityHeader& header,
                                      std::span<const std::uint8_t> shard) {
  simmpi::OArchive ar;
  ar.put(header);
  ar.write_raw(shard.data(), shard.size());
  return ar.take();
}

std::pair<ParityHeader, std::span<const std::uint8_t>> unpack_parity(
    std::span<const std::uint8_t> blob) {
  simmpi::IArchive ar(blob);
  const auto header = ar.get<ParityHeader>();
  if (ar.remaining() != header.shard_len) {
    throw std::runtime_error("ec: corrupt parity blob");
  }
  return {header, blob.subspan(blob.size() - header.shard_len)};
}

}  // namespace

int ec_group_of(int rank, const EcConfig& config) noexcept {
  return rank / std::max(1, config.group_size);
}

int ec_group_count(int nranks, const EcConfig& config) noexcept {
  const int m = std::max(1, config.group_size);
  return (nranks + m - 1) / m;
}

std::vector<int> ec_group_members(int group, int nranks,
                                  const EcConfig& config) {
  const int m = std::max(1, config.group_size);
  std::vector<int> members;
  for (int r = group * m; r < std::min(nranks, (group + 1) * m); ++r) {
    members.push_back(r);
  }
  return members;
}

std::vector<int> ec_parity_holders(int group, int nranks,
                                   const EcConfig& config) {
  const int m = std::max(1, config.group_size);
  const int first_after = std::min(nranks, (group + 1) * m);
  std::vector<int> holders;
  for (int t = 0; t < config.parity; ++t) {
    holders.push_back((first_after + t) % nranks);
  }
  return holders;
}

std::string ec_parity_key(int group, int parity_index, std::uint64_t epoch) {
  return "ecparity/" + std::to_string(group) + "/" +
         std::to_string(parity_index) + "/" + std::to_string(epoch);
}

std::string ec_stream_key(int rank, std::uint64_t epoch) {
  return "ecstream/" + std::to_string(rank) + "/" + std::to_string(epoch);
}

EcDumper::EcDumper(simmpi::Comm& comm, chunk::ChunkStore& store,
                   EcConfig config)
    : comm_(comm), store_(store), config_(config) {
  if (config_.chunk_bytes == 0) {
    throw std::invalid_argument("EcDumper: chunk_bytes must be positive");
  }
  if (config_.group_size < 1 || config_.parity < 0 ||
      config_.group_size + config_.parity > 256) {
    throw std::invalid_argument("EcDumper: invalid group geometry");
  }
}

EcDumpStats EcDumper::dump_output(const chunk::Dataset& buffer) {
  const int n = comm_.size();
  const int rank = comm_.rank();
  if (config_.group_size + config_.parity > n) {
    throw std::invalid_argument(
        "EcDumper: group_size + parity must not exceed the rank count "
        "(parity holders must be distinct from group members)");
  }
  const auto& cluster = comm_.cluster();
  const auto& hasher = hash::hasher_for(config_.hash_kind);

  EcDumpStats stats;
  stats.rank = rank;

  comm_.barrier();
  const double t0 = comm_.clock().now();
  if (auto* t = comm_.obs()) {
    t->event(obs::EventKind::kPhaseBegin, t0, "ec_dump");
  }

  // ---- local dedup ----------------------------------------------------------
  const chunk::Chunker chunker(buffer, config_.chunk_bytes);
  const core::LocalDedupResult local = core::local_dedup(chunker, hasher);
  stats.dataset_bytes = local.total_bytes;
  stats.chunk_count = chunker.count();
  comm_.charge(static_cast<double>(local.total_bytes) /
                   hasher.modeled_bytes_per_second() +
               static_cast<double>(chunker.count()) *
                   cluster.chunk_overhead_s);

  // ---- collective dedup (natural replicas substitute for coding) ------------
  const int cap = config_.parity + 1;  // natural copies that equal coding
  core::BoundedFpSet gview;
  if (config_.use_collective_dedup && config_.parity > 0) {
    gview = core::reduce_global_view(comm_, local, config_.threshold_f, cap);
  }

  // ---- stream selection -------------------------------------------------------
  // stream: unique chunks this rank must protect with coding.
  // keep: unique chunks this rank stores locally (stream + fully-covered
  // designated chunks).
  std::vector<std::uint32_t> stream;
  std::vector<std::uint32_t> keep;
  for (const auto chunk_index : local.unique_chunks) {
    const auto& fp = local.chunk_fps[chunk_index];
    const core::FpEntry* entry = gview.find(fp);
    if (entry == nullptr) {
      stream.push_back(chunk_index);
      keep.push_back(chunk_index);
      continue;
    }
    const auto dranks = gview.ranks(*entry);
    const bool designated =
        std::binary_search(dranks.begin(), dranks.end(), rank);
    if (!designated) {
      ++stats.excluded_chunks;  // cap other ranks already hold it
      continue;
    }
    keep.push_back(chunk_index);
    if (static_cast<int>(dranks.size()) < cap) {
      stream.push_back(chunk_index);
    } else {
      ++stats.excluded_chunks;  // enough natural copies; skip coding
    }
  }
  stats.stream_chunks = stream.size();

  // ---- group geometry & stripe count ----------------------------------------
  const int group = ec_group_of(rank, config_);
  const auto members = ec_group_members(group, n, config_);
  const auto holders = ec_parity_holders(group, n, config_);
  const int m_eff = static_cast<int>(members.size());
  const int my_index = static_cast<int>(
      std::find(members.begin(), members.end(), rank) - members.begin());

  const auto all_stream_counts =
      simmpi::allgather(comm_, static_cast<std::uint64_t>(stream.size()));
  std::uint64_t stripes = 0;
  for (const int member : members) {
    stripes = std::max(stripes,
                       all_stream_counts[static_cast<std::size_t>(member)]);
  }
  const std::uint64_t shard_len = stripes * config_.chunk_bytes;

  // ---- own shard --------------------------------------------------------------
  std::vector<std::uint8_t> own_shard(shard_len, 0);
  for (std::size_t s = 0; s < stream.size(); ++s) {
    const auto payload = chunker.bytes(stream[s]);
    std::copy(payload.begin(), payload.end(),
              own_shard.begin() +
                  static_cast<std::ptrdiff_t>(s * config_.chunk_bytes));
  }

  // ---- ring-chain parity accumulation -----------------------------------------
  if (config_.parity > 0 && shard_len > 0) {
    const ec::ReedSolomon rs(m_eff, config_.parity);
    std::vector<std::vector<std::uint8_t>> partial(
        static_cast<std::size_t>(config_.parity));
    if (my_index == 0) {
      for (auto& p : partial) p.assign(shard_len, 0);
    } else {
      partial = comm_.recv_value<std::vector<std::vector<std::uint8_t>>>(
          members[static_cast<std::size_t>(my_index - 1)], kChainTag);
    }
    for (int j = 0; j < config_.parity; ++j) {
      ec::gf_mul_add(partial[static_cast<std::size_t>(j)], own_shard,
                 rs.coeff(j, my_index));
      // GF multiply-accumulate over the shard.
      comm_.charge(static_cast<double>(shard_len) / cluster.mem_bandwidth_bps);
    }
    if (my_index + 1 < m_eff) {
      comm_.send_value(members[static_cast<std::size_t>(my_index + 1)],
                       kChainTag, partial);
      stats.sent_bytes +=
          static_cast<std::uint64_t>(config_.parity) * shard_len;
    } else {
      for (int j = 0; j < config_.parity; ++j) {
        comm_.send_value(holders[static_cast<std::size_t>(j)], kParityTag + j,
                         partial[static_cast<std::size_t>(j)]);
        stats.sent_bytes += shard_len;
      }
    }
  }

  // ---- receive parity shards for the groups this rank protects ----------------
  if (config_.parity > 0) {
    for (int g = 0; g < ec_group_count(n, config_); ++g) {
      const auto g_holders = ec_parity_holders(g, n, config_);
      const auto g_members = ec_group_members(g, n, config_);
      std::uint64_t g_stripes = 0;
      for (const int member : g_members) {
        g_stripes = std::max(
            g_stripes, all_stream_counts[static_cast<std::size_t>(member)]);
      }
      for (int j = 0; j < config_.parity; ++j) {
        if (g_holders[static_cast<std::size_t>(j)] != rank) continue;
        if (g_stripes == 0) continue;
        auto shard = comm_.recv_value<std::vector<std::uint8_t>>(
            g_members.back(), kParityTag + j);
        const ParityHeader header{
            config_.epoch, g, j, static_cast<std::int32_t>(g_members.size()),
            static_cast<std::uint64_t>(shard.size())};
        stats.parity_bytes += shard.size();
        store_.put_blob(ec_parity_key(g, j, config_.epoch),
                        pack_parity(header, shard));
      }
    }
  }

  // ---- manifests, stream manifests, local commit --------------------------------
  chunk::Manifest manifest;
  manifest.owner_rank = rank;
  manifest.epoch = config_.epoch;
  for (std::size_t i = 0; i < buffer.segment_count(); ++i) {
    manifest.segment_sizes.push_back(buffer.segment(i).size());
  }
  manifest.entries.reserve(chunker.count());
  for (std::size_t i = 0; i < chunker.count(); ++i) {
    manifest.entries.push_back(
        chunk::ManifestEntry{local.chunk_fps[i], chunker.ref(i).length});
  }

  std::vector<chunk::ManifestEntry> stream_manifest;
  stream_manifest.reserve(stream.size());
  for (const auto chunk_index : stream) {
    stream_manifest.push_back(chunk::ManifestEntry{
        local.chunk_fps[chunk_index], chunker.ref(chunk_index).length});
  }
  const auto stream_blob = simmpi::to_bytes(stream_manifest);

  store_.put_manifest(manifest);
  store_.put_blob(ec_stream_key(rank, config_.epoch), stream_blob);
  for (const int holder : holders) {
    comm_.send_value(holder, kManifestTag, manifest);
    comm_.send_value(holder, kStreamTag + rank, stream_manifest);
    stats.sent_bytes += chunk::manifest_wire_bytes(manifest);
  }
  // Receive manifests from every member of every group this rank protects.
  if (config_.parity > 0) {
    for (int g = 0; g < ec_group_count(n, config_); ++g) {
      const auto g_holders = ec_parity_holders(g, n, config_);
      if (std::find(g_holders.begin(), g_holders.end(), rank) ==
          g_holders.end()) {
        continue;
      }
      for (const int member : ec_group_members(g, n, config_)) {
        store_.put_manifest(comm_.recv_value<chunk::Manifest>(member,
                                                              kManifestTag));
        const auto sm =
            comm_.recv_value<std::vector<chunk::ManifestEntry>>(
                member, kStreamTag + member);
        store_.put_blob(ec_stream_key(member, config_.epoch),
                        simmpi::to_bytes(sm));
      }
    }
  }

  for (const auto chunk_index : keep) {
    const auto payload = chunker.bytes(chunk_index);
    if (store_.mode() == chunk::StoreMode::kPayload) {
      store_.put(local.chunk_fps[chunk_index], payload);
    } else {
      store_.put_accounted(local.chunk_fps[chunk_index],
                           static_cast<std::uint32_t>(payload.size()));
    }
    stats.stored_bytes += payload.size();
  }

  // ---- storage phase (shared HDD per node, like the replication path) ---------
  const std::uint64_t device_bytes =
      stats.stored_bytes + stats.parity_bytes +
      chunk::manifest_wire_bytes(manifest);
  const auto all_device = simmpi::allgather(comm_, device_bytes);
  comm_.charge(static_cast<double>(comm_.node_total(all_device)) /
               cluster.hdd_write_bps);
  comm_.barrier();
  stats.total_time_s = comm_.clock().now() - t0;

  if (auto* t = comm_.obs()) {
    t->event(obs::EventKind::kPhaseEnd, comm_.clock().now(), "ec_dump");
    auto& m = *t->metrics;
    if (rank == 0) m.add("ec.count");
    m.add("ec.dataset_bytes", stats.dataset_bytes);
    m.add("ec.stream_chunks", stats.stream_chunks);
    m.add("ec.excluded_chunks", stats.excluded_chunks);
    m.add("ec.stored_bytes", stats.stored_bytes);
    m.add("ec.parity_bytes", stats.parity_bytes);
    m.add("ec.sent_bytes", stats.sent_bytes);
    m.observe("ec.rank_parity_bytes", static_cast<double>(stats.parity_bytes));
    if (rank == 0) m.set("ec.last.total_time_s", stats.total_time_s);
  }
  return stats;
}

core::RestoreResult ec_restore_rank(
    std::span<chunk::ChunkStore* const> stores, int rank,
    const EcConfig& config) {
  const ManifestScan scan = newest_manifest(stores, rank);
  // Read only by the decode below, which runs after refill_segments has
  // accepted the manifest.
  const std::uint64_t epoch =
      scan.manifest != nullptr ? scan.manifest->epoch : 0;
  const int n = static_cast<int>(stores.size());
  const auto alive = [&](int r) {
    return stores[static_cast<std::size_t>(r)] != nullptr &&
           !stores[static_cast<std::size_t>(r)]->failed();
  };

  // Decoded-stream payloads, filled lazily on the first miss.
  std::unordered_map<hash::Fingerprint, std::vector<std::uint8_t>,
                     hash::FingerprintHash>
      decoded;
  bool decode_attempted = false;

  const auto stream_manifest_for =
      [&](int member) -> std::optional<std::vector<chunk::ManifestEntry>> {
    const auto key = ec_stream_key(member, epoch);
    for (int r = 0; r < n; ++r) {
      if (!alive(r)) continue;
      if (const auto* blob = stores[static_cast<std::size_t>(r)]->get_blob(key)) {
        return simmpi::from_bytes<std::vector<chunk::ManifestEntry>>(*blob);
      }
    }
    return std::nullopt;
  };

  const auto try_decode = [&] {
    if (decode_attempted) return;
    decode_attempted = true;
    const int group = ec_group_of(rank, config);
    const auto members = ec_group_members(group, n, config);
    const auto holders = ec_parity_holders(group, n, config);
    const int m_eff = static_cast<int>(members.size());

    // Stream manifests for every member (needed for stripe geometry).
    std::vector<std::vector<chunk::ManifestEntry>> streams(
        static_cast<std::size_t>(m_eff));
    std::uint64_t stripes = 0;
    for (int i = 0; i < m_eff; ++i) {
      const auto sm = stream_manifest_for(members[static_cast<std::size_t>(i)]);
      // Without every member's stream geometry nothing decodes: the miss
      // is reported as a lost chunk by refill_segments.
      if (!sm.has_value()) return;
      streams[static_cast<std::size_t>(i)] = *sm;
      stripes = std::max(stripes, static_cast<std::uint64_t>(sm->size()));
    }
    if (stripes == 0) return;
    const std::uint64_t shard_len = stripes * config.chunk_bytes;

    std::vector<std::optional<std::vector<std::uint8_t>>> shards(
        static_cast<std::size_t>(m_eff + config.parity));
    // Data shards from surviving members.
    for (int i = 0; i < m_eff; ++i) {
      const int member = members[static_cast<std::size_t>(i)];
      if (!alive(member)) continue;
      std::vector<std::uint8_t> shard(shard_len, 0);
      bool complete = true;
      const auto& sm = streams[static_cast<std::size_t>(i)];
      for (std::size_t s = 0; s < sm.size(); ++s) {
        const auto payload =
            stores[static_cast<std::size_t>(member)]->get(sm[s].fp);
        if (!payload.has_value() || payload->size() != sm[s].length) {
          complete = false;
          break;
        }
        std::copy(payload->begin(), payload->end(),
                  shard.begin() +
                      static_cast<std::ptrdiff_t>(s * config.chunk_bytes));
      }
      if (complete) shards[static_cast<std::size_t>(i)] = std::move(shard);
    }
    // Parity shards from surviving holders.
    for (int j = 0; j < config.parity; ++j) {
      const int holder = holders[static_cast<std::size_t>(j)];
      if (!alive(holder)) continue;
      const auto* blob = stores[static_cast<std::size_t>(holder)]->get_blob(
          ec_parity_key(group, j, epoch));
      if (blob == nullptr) continue;
      const auto [header, shard] = unpack_parity(*blob);
      if (header.shard_len != shard_len) continue;  // stale epoch geometry
      shards[static_cast<std::size_t>(m_eff + j)] =
          std::vector<std::uint8_t>(shard.begin(), shard.end());
    }

    const ec::ReedSolomon rs(m_eff, config.parity);
    const auto data = rs.reconstruct_data(shards);
    for (int i = 0; i < m_eff; ++i) {
      const auto& sm = streams[static_cast<std::size_t>(i)];
      for (std::size_t s = 0; s < sm.size(); ++s) {
        const auto* base = data[static_cast<std::size_t>(i)].data() +
                           s * config.chunk_bytes;
        decoded.try_emplace(
            sm[s].fp, std::vector<std::uint8_t>(base, base + sm[s].length));
      }
    }
  };

  return refill_segments(
      scan, rank,
      [&](const hash::Fingerprint& fp) -> std::optional<FetchedChunk> {
        if (auto hit = fetch_replica(stores, rank, fp)) return hit;
        try_decode();
        const auto it = decoded.find(fp);
        if (it == decoded.end()) return std::nullopt;
        return FetchedChunk{it->second, false};
      });
}

}  // namespace collrep::core
