#include "core/replica_plan.hpp"

#include <algorithm>
#include <stdexcept>

namespace collrep::core {

namespace {

std::vector<std::uint8_t> all_partner_slots(int k_effective) {
  std::vector<std::uint8_t> slots;
  slots.reserve(static_cast<std::size_t>(k_effective - 1));
  for (int p = 1; p < k_effective; ++p) {
    slots.push_back(static_cast<std::uint8_t>(p));
  }
  return slots;
}

}  // namespace

ReplicaPlan plan_full(std::span<const std::uint32_t> chunk_lengths,
                      int k_effective) {
  ReplicaPlan plan;
  plan.load.assign(static_cast<std::size_t>(k_effective), 0);
  const auto slots = all_partner_slots(k_effective);
  plan.assignments.reserve(chunk_lengths.size());
  for (std::size_t i = 0; i < chunk_lengths.size(); ++i) {
    plan.assignments.push_back(ChunkAssignment{
        static_cast<std::uint32_t>(i), /*store_local=*/true, slots});
    plan.owned_unique_bytes += chunk_lengths[i];
  }
  for (auto& l : plan.load) l = chunk_lengths.size();
  return plan;
}

ReplicaPlan plan_local_dedup(const LocalDedupResult& local,
                             const chunk::Chunker& chunker, int k_effective) {
  ReplicaPlan plan;
  plan.load.assign(static_cast<std::size_t>(k_effective), 0);
  const auto slots = all_partner_slots(k_effective);
  plan.assignments.reserve(local.unique_chunks.size());
  for (std::size_t u = 0; u < local.unique_chunks.size(); ++u) {
    plan.assignments.push_back(ChunkAssignment{static_cast<std::uint32_t>(u),
                                               /*store_local=*/true, slots});
    plan.owned_unique_bytes +=
        chunker.ref(local.unique_chunks[u]).length;
  }
  for (auto& l : plan.load) l = local.unique_chunks.size();
  return plan;
}

std::vector<const FpEntry*> resolve_view(const LocalDedupResult& local,
                                         const BoundedFpSet& gview) {
  std::vector<const FpEntry*> entries;
  entries.reserve(local.unique_chunks.size());
  for (const auto chunk_index : local.unique_chunks) {
    entries.push_back(gview.find(local.chunk_fps[chunk_index]));
  }
  return entries;
}

ReplicaPlan plan_collective(const LocalDedupResult& local,
                            const chunk::Chunker& chunker,
                            const BoundedFpSet& gview, int my_rank,
                            int k_effective, const ShuffleContext* shuffle_ctx) {
  return plan_collective(local, chunker, gview, resolve_view(local, gview),
                         my_rank, k_effective, shuffle_ctx);
}

ReplicaPlan plan_collective(const LocalDedupResult& local,
                            const chunk::Chunker& chunker,
                            const BoundedFpSet& gview,
                            std::span<const FpEntry* const> entries,
                            int my_rank, int k_effective,
                            const ShuffleContext* shuffle_ctx) {
  if (entries.size() != local.unique_chunks.size()) {
    throw std::invalid_argument(
        "plan_collective: one view entry per unique chunk expected");
  }
  ReplicaPlan plan;
  plan.load.assign(static_cast<std::size_t>(k_effective), 0);
  // Scratch of the avoidance pass, reused across chunks.
  std::vector<std::int32_t> taken;
  std::vector<int> next_slot;

  for (std::size_t u = 0; u < local.unique_chunks.size(); ++u) {
    const auto chunk_index = local.unique_chunks[u];
    const std::uint32_t length = chunker.ref(chunk_index).length;
    const FpEntry* entry = entries[u];

    if (entry == nullptr) {
      // Not globally tracked: treated as unique; this rank keeps a copy
      // and replicates to all K-1 partners (paper §III-B).
      ChunkAssignment a{static_cast<std::uint32_t>(u), /*store_local=*/true,
                        all_partner_slots(k_effective)};
      plan.load[0] += 1;
      for (int p = 1; p < k_effective; ++p) {
        plan.load[static_cast<std::size_t>(p)] += 1;
      }
      plan.assignments.push_back(std::move(a));
      plan.owned_unique_bytes += length;
      continue;
    }

    const auto designated = gview.ranks(*entry);
    const auto me =
        std::lower_bound(designated.begin(), designated.end(), my_rank);
    if (me == designated.end() || *me != my_rank) {
      // K other ranks already cover this chunk: natural replicas suffice.
      ++plan.discarded_chunks;
      plan.discarded_bytes += length;
      continue;
    }

    if (designated.front() == my_rank) plan.owned_unique_bytes += length;

    const int d = static_cast<int>(designated.size());
    const int j = static_cast<int>(me - designated.begin());
    const int extras = k_effective - d;  // replicas still missing globally

    ChunkAssignment a{static_cast<std::uint32_t>(u), /*store_local=*/true, {}};
    plan.load[0] += 1;
    if (extras > 0) {
      if (shuffle_ctx == nullptr) {
        // Pre-shuffle (paper Algorithm 1): partner identities are unknown.
        // Round-robin split of the missing replicas over the D designated
        // ranks; this rank (the j-th) covers extras t with t mod D == j and
        // uses its first slots.
        int my_share = 0;
        for (int t = 0; t < extras; ++t) {
          if (t % d == j) ++my_share;
        }
        for (int p = 1; p <= my_share && p < k_effective; ++p) {
          a.send_slots.push_back(static_cast<std::uint8_t>(p));
        }
      } else {
        // Post-shuffle avoidance pass: every rank replays the same global
        // greedy from the shared view, so all designated senders agree on
        // a target set that is disjoint from the designated ranks *and*
        // from each other — the chunk lands on K distinct stores.
        const int n = static_cast<int>(shuffle_ctx->shuffle.size());
        taken.assign(designated.begin(), designated.end());
        next_slot.assign(static_cast<std::size_t>(d), 1);
        for (int t = 0; t < extras; ++t) {
          const int sender_idx = t % d;
          const std::int32_t sender = designated[sender_idx];
          const int sender_pos =
              shuffle_ctx->position_of[static_cast<std::size_t>(sender)];
          int chosen = -1;
          for (int p = next_slot[static_cast<std::size_t>(sender_idx)];
               p < k_effective; ++p) {
            const int partner = shuffle_ctx->shuffle[static_cast<std::size_t>(
                (sender_pos + p) % n)];
            if (std::find(taken.begin(), taken.end(), partner) ==
                taken.end()) {
              chosen = p;
              taken.push_back(partner);
              break;
            }
          }
          if (chosen < 0) {
            // No collision-free slot left for this sender: reuse its next
            // unused slot even though the target already holds a copy.
            chosen = next_slot[static_cast<std::size_t>(sender_idx)];
            if (chosen >= k_effective) continue;  // sender exhausted
            if (sender == my_rank) ++plan.skip_fallbacks;
          }
          next_slot[static_cast<std::size_t>(sender_idx)] = chosen + 1;
          if (sender == my_rank) {
            a.send_slots.push_back(static_cast<std::uint8_t>(chosen));
          }
        }
      }
      for (std::uint8_t p : a.send_slots) plan.load[p] += 1;
    }
    plan.assignments.push_back(std::move(a));
  }

  // Local duplicates beyond the first copy never leave the node under any
  // dedup strategy; they are neither stored twice nor sent.
  return plan;
}

}  // namespace collrep::core
