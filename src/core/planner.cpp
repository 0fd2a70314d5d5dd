#include "core/planner.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace collrep::core {

void SendMatrix::set_row(int rank, std::span<const std::uint64_t> values) {
  if (static_cast<int>(values.size()) != k_) {
    throw std::invalid_argument("SendMatrix: row size mismatch");
  }
  std::copy(values.begin(), values.end(),
            chunks_.begin() + static_cast<std::size_t>(rank) *
                                  static_cast<std::size_t>(k_));
}

std::vector<int> rank_shuffle(const SendMatrix& load, int k) {
  const int n = load.nranks();
  std::vector<int> index(static_cast<std::size_t>(n));
  std::iota(index.begin(), index.end(), 0);
  std::stable_sort(index.begin(), index.end(), [&](int a, int b) {
    const auto sa = load.total_send(a);
    const auto sb = load.total_send(b);
    if (sa != sb) return sa > sb;
    return a < b;
  });

  std::vector<int> shuffle(static_cast<std::size_t>(n));
  int head = 0;
  int tail = n - 1;
  std::size_t i = 0;
  while (head <= tail) {
    shuffle[i++] = index[static_cast<std::size_t>(head++)];
    for (int j = 1; j < k && head <= tail; ++j) {
      shuffle[i++] = index[static_cast<std::size_t>(tail--)];
    }
  }
  return shuffle;
}

std::vector<int> identity_shuffle(int nranks) {
  std::vector<int> shuffle(static_cast<std::size_t>(nranks));
  std::iota(shuffle.begin(), shuffle.end(), 0);
  return shuffle;
}

std::vector<int> invert_shuffle(std::span<const int> shuffle) {
  std::vector<int> pos(shuffle.size());
  for (std::size_t i = 0; i < shuffle.size(); ++i) {
    pos[static_cast<std::size_t>(shuffle[i])] = static_cast<int>(i);
  }
  return pos;
}

std::uint64_t put_offset_chunks(const SendMatrix& load,
                                std::span<const int> shuffle, int pos, int p) {
  const int n = static_cast<int>(shuffle.size());
  // Receiver sits at pos + p.  Senders at distance d < p from the receiver
  // come later in the ring and were assigned the earlier window regions
  // (paper: "rank i uses offset 0 for its partner i+1, offset j for its
  // partner i+2 where j is the send size from i+1 to i+2", §III-C).
  std::uint64_t offset = 0;
  for (int d = 1; d < p; ++d) {
    const int sender = shuffle[static_cast<std::size_t>((pos + p - d) % n)];
    offset += load.at(sender, d);
  }
  return offset;
}

std::uint64_t window_chunks(const SendMatrix& load,
                            std::span<const int> shuffle, int pos) {
  const int n = static_cast<int>(shuffle.size());
  const int k = load.k();
  std::uint64_t total = 0;
  for (int d = 1; d < k; ++d) {
    const int sender =
        shuffle[static_cast<std::size_t>(((pos - d) % n + n) % n)];
    total += load.at(sender, d);
  }
  return total;
}

int same_node_partner_count(std::span<const int> shuffle, int k,
                            std::span<const int> node_of) {
  const int n = static_cast<int>(shuffle.size());
  int violations = 0;
  for (int pos = 0; pos < n; ++pos) {
    const int node = node_of[static_cast<std::size_t>(
        shuffle[static_cast<std::size_t>(pos)])];
    for (int p = 1; p < k && p < n; ++p) {
      const int partner = shuffle[static_cast<std::size_t>((pos + p) % n)];
      if (node_of[static_cast<std::size_t>(partner)] == node) ++violations;
    }
  }
  return violations;
}

std::vector<int> make_node_disjoint(std::vector<int> shuffle, int k,
                                    std::span<const int> node_of) {
  const int n = static_cast<int>(shuffle.size());
  if (n <= 1 || k <= 1) return shuffle;

  const auto node_at = [&](int pos) {
    return node_of[static_cast<std::size_t>(
        shuffle[static_cast<std::size_t>(((pos % n) + n) % n)])];
  };
  // Same-node partner *pairs* owned by a position: matches against the
  // k-1 ring positions before it.  The sum over positions equals
  // same_node_partner_count, so a strictly decreasing local search on
  // this objective can never worsen the reported metric.
  const auto violation_pairs = [&](int pos) {
    int pairs = 0;
    for (int d = 1; d < k && d < n; ++d) {
      if (node_at(pos) == node_at(pos - d)) ++pairs;
    }
    return pairs;
  };
  // Swapping positions i and j can only change the status of i, j and
  // the k-1 positions after each.
  const auto affected_viols = [&](int i, int j) {
    int count = 0;
    for (int t = 0; t < k && t < n; ++t) {
      count += violation_pairs(i + t);
      if (((j + t) % n + n) % n != ((i + t) % n + n) % n) {
        count += violation_pairs(j + t);
      }
    }
    return count;
  };

  // Greedy local search: accept any swap that strictly reduces the
  // violation count in the affected window; a few rounds converge on all
  // feasible instances (and leave the best effort otherwise).
  for (int round = 0; round < 4; ++round) {
    bool improved = false;
    for (int i = 0; i < n; ++i) {
      if (violation_pairs(i) == 0) continue;
      for (int j = 0; j < n; ++j) {
        if (j == i) continue;
        const int before = affected_viols(i, j);
        std::swap(shuffle[static_cast<std::size_t>(i)],
                  shuffle[static_cast<std::size_t>(j)]);
        const int after = affected_viols(i, j);
        if (after < before) {
          improved = true;
          break;
        }
        std::swap(shuffle[static_cast<std::size_t>(i)],
                  shuffle[static_cast<std::size_t>(j)]);
      }
    }
    if (!improved) break;
  }

  // The local search can stall in a local optimum; if violations remain,
  // try the constructive fallback — walk the original order and at each
  // position pick the earliest remaining rank whose node differs from the
  // previous k-1 picks — and keep whichever arrangement is better.
  if (same_node_partner_count(shuffle, k, node_of) > 0) {
    std::vector<int> constructed;
    constructed.reserve(static_cast<std::size_t>(n));
    std::vector<bool> used(static_cast<std::size_t>(n), false);
    for (int i = 0; i < n; ++i) {
      int pick = -1;
      for (int j = 0; j < n; ++j) {
        if (used[static_cast<std::size_t>(j)]) continue;
        const int node = node_of[static_cast<std::size_t>(
            shuffle[static_cast<std::size_t>(j)])];
        bool clean = true;
        for (int d = 1; d < k && d <= i; ++d) {
          if (node_of[static_cast<std::size_t>(
                  constructed[static_cast<std::size_t>(i - d)])] == node) {
            clean = false;
            break;
          }
        }
        if (clean) {
          pick = j;
          break;
        }
      }
      if (pick < 0) {  // forced violation; take the earliest remaining
        for (int j = 0; j < n; ++j) {
          if (!used[static_cast<std::size_t>(j)]) {
            pick = j;
            break;
          }
        }
      }
      used[static_cast<std::size_t>(pick)] = true;
      constructed.push_back(shuffle[static_cast<std::size_t>(pick)]);
    }
    if (same_node_partner_count(constructed, k, node_of) <
        same_node_partner_count(shuffle, k, node_of)) {
      shuffle = std::move(constructed);
    }
  }
  return shuffle;
}

std::vector<std::uint64_t> receive_chunks_per_rank(
    const SendMatrix& load, std::span<const int> shuffle) {
  const int n = static_cast<int>(shuffle.size());
  std::vector<std::uint64_t> recv(static_cast<std::size_t>(n), 0);
  for (int pos = 0; pos < n; ++pos) {
    recv[static_cast<std::size_t>(shuffle[static_cast<std::size_t>(pos)])] =
        window_chunks(load, shuffle, pos);
  }
  return recv;
}

}  // namespace collrep::core
