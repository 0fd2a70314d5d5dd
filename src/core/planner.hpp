// Replication planning: load vectors, load-aware rank shuffling
// (Algorithm 2) and single-sided window offset calculation (Algorithm 3).
//
// Terminology (paper §III-C): every rank has K-1 "partners" — the next
// K-1 ranks in *shuffled* order.  Load[0] counts chunks stored locally,
// Load[p] (1 <= p < K) counts chunks sent to the p-th partner.  SendMatrix
// is the allgathered N x K load table every rank uses to derive, without
// further communication, both the shuffle and the put offsets.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace collrep::core {

// N x K chunk-count table; row = rank (original id), column = slot.
class SendMatrix {
 public:
  SendMatrix() = default;
  SendMatrix(int nranks, int k)
      : n_(nranks), k_(k),
        chunks_(static_cast<std::size_t>(nranks) * static_cast<std::size_t>(k),
                0) {}

  [[nodiscard]] int nranks() const noexcept { return n_; }
  [[nodiscard]] int k() const noexcept { return k_; }

  [[nodiscard]] std::uint64_t& at(int rank, int slot) {
    return chunks_[static_cast<std::size_t>(rank) * static_cast<std::size_t>(k_) +
                   static_cast<std::size_t>(slot)];
  }
  [[nodiscard]] std::uint64_t at(int rank, int slot) const {
    return chunks_[static_cast<std::size_t>(rank) * static_cast<std::size_t>(k_) +
                   static_cast<std::size_t>(slot)];
  }

  // Chunks rank `rank` sends to partners (slots 1..K-1).
  [[nodiscard]] std::uint64_t total_send(int rank) const {
    std::uint64_t sum = 0;
    for (int p = 1; p < k_; ++p) sum += at(rank, p);
    return sum;
  }

  [[nodiscard]] std::span<const std::uint64_t> row(int rank) const {
    return {chunks_.data() +
                static_cast<std::size_t>(rank) * static_cast<std::size_t>(k_),
            static_cast<std::size_t>(k_)};
  }
  void set_row(int rank, std::span<const std::uint64_t> values);

 private:
  int n_ = 0;
  int k_ = 0;
  std::vector<std::uint64_t> chunks_;
};

// Algorithm 2 with the intended (prose) semantics — see DESIGN.md §1: sort
// ranks by descending total send size, then emit one heavy rank followed by
// K-1 light ranks per group.  Returns the permutation `shuffle` where
// shuffle[position] = original rank.  Deterministic (ties by rank id).
[[nodiscard]] std::vector<int> rank_shuffle(const SendMatrix& load, int k);

// The naive arrangement (rank i's partners are i+1..i+K-1 mod N).
[[nodiscard]] std::vector<int> identity_shuffle(int nranks);

// Inverse permutation: position_of[rank] = position in `shuffle`.
[[nodiscard]] std::vector<int> invert_shuffle(std::span<const int> shuffle);

// Partner resolution: the p-th partner (p in 1..K-1) of the rank sitting
// at `position` is the rank at position+p (mod N) in shuffled order.
[[nodiscard]] inline int partner_at(std::span<const int> shuffle, int position,
                                    int p) {
  const int n = static_cast<int>(shuffle.size());
  return shuffle[static_cast<std::size_t>((position + p) % n)];
}

// Algorithm 3: byte-free (chunk-granular) offsets for single-sided puts.
// Offset of the put that the rank at shuffled position `pos` issues toward
// its p-th partner, measured in chunk slots inside that partner's window:
// the senders nearer the receiver occupy the window first.
[[nodiscard]] std::uint64_t put_offset_chunks(const SendMatrix& load,
                                              std::span<const int> shuffle,
                                              int pos, int p);

// Total chunk slots the rank at shuffled position `pos` must expose
// (= sum of what its K-1 upstream neighbours send it).
[[nodiscard]] std::uint64_t window_chunks(const SendMatrix& load,
                                          std::span<const int> shuffle,
                                          int pos);

// Receive totals per rank (chunks), derived from the matrix + shuffle;
// used by the shuffle-effectiveness experiments (Fig. 4c / 5c).
[[nodiscard]] std::vector<std::uint64_t> receive_chunks_per_rank(
    const SendMatrix& load, std::span<const int> shuffle);

// ---- topology awareness (paper §VI future work: "other partner selection
// criteria, such as rack-awareness or topology") -----------------------------

// Number of (rank, partner-slot) pairs whose partner lives on the same
// node as the rank — replicas on the same node do not survive a node loss.
// `node_of[r]` is the node of rank r of the ranks `shuffle` permutes.  For
// a communicator these are dense group ranks, which map to nodes through
// their world rank (Comm::world_of), so the count stays right after a
// shrink.
[[nodiscard]] int same_node_partner_count(std::span<const int> shuffle, int k,
                                          std::span<const int> node_of);

// Greedy repair pass: permutes `shuffle` so that (best effort) none of a
// rank's K-1 ring successors shares its node, while disturbing the
// load-aware order as little as possible.  With fewer than K nodes a
// violation-free arrangement cannot exist; the result minimizes greedily
// and same_node_partner_count() reports what remains.  `node_of` as
// there.
[[nodiscard]] std::vector<int> make_node_disjoint(
    std::vector<int> shuffle, int k, std::span<const int> node_of);

}  // namespace collrep::core
