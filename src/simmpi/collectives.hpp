// Typed collectives built on the Comm point-to-point layer.
//
// Shapes follow the classic MPI implementations the paper relies on:
// binomial-tree reduce + binomial-tree broadcast (so ALLREDUCE of the
// HMERGE operator is logarithmic in the number of processes, §III-B), and
// ring allgather (a modeled schedule, see allgather()).  User-defined
// reduction operators receive (accumulated, incoming) and may charge
// compute time via Comm::charge.
#pragma once

#include <functional>
#include <source_location>
#include <typeinfo>
#include <utility>
#include <vector>

#include "simmpi/comm.hpp"

namespace collrep::simmpi {

namespace tags {
// Distinct tag bases per collective; point-to-point matching is FIFO per
// (source, tag) so repeated collectives on the same tag stay ordered.
inline constexpr int kBcast = 1 << 20;
inline constexpr int kReduce = 2 << 20;
inline constexpr int kGather = 3 << 20;
inline constexpr int kAllgather = 4 << 20;
inline constexpr int kScatter = 5 << 20;
}  // namespace tags

namespace detail {

// Logical round count of a binomial-tree collective over n ranks
// (ceil(log2 n); the per-round cost model lives in RunState::barrier_cost).
[[nodiscard]] inline std::uint64_t tree_rounds(int n) noexcept {
  std::uint64_t rounds = 0;
  for (int span = 1; span < n; span <<= 1) ++rounds;
  return rounds;
}

// Fingerprint of a typed collective entry: the first six CollOp values
// mirror obs::CollectiveKind by index, the payload type contributes its
// typeid hash (identical across rank threads of one process).  Reductions
// mix in the operator's typeid as well — closure types are unique per
// source location, so ranks disagreeing on the reduction op diverge here
// even when the payload type matches.
template <class T>
[[nodiscard]] CollFingerprint fingerprint(obs::CollectiveKind kind, int root,
                                          std::uint64_t op_hash = 0) noexcept {
  return CollFingerprint{
      .op = static_cast<CollOp>(obs::index_of(kind)),
      .root = root,
      .type_hash = typeid(T).hash_code() ^ (op_hash * 0x9e3779b97f4a7c15ull)};
}

// RAII verification + telemetry wrapper for one collective invocation:
// cross-checks the entry fingerprint against the other ranks (may throw
// check::ViolationError on a divergent rank before the collective can
// deadlock), bumps the per-kind call/round counters, and brackets the
// body with trace events.  Two null checks when neither a checker nor
// telemetry is attached.
class CollectiveScope {
 public:
  CollectiveScope(Comm& comm, obs::CollectiveKind kind, std::uint64_t rounds,
                  const CollFingerprint& fp, const std::source_location& loc)
      : obs_(comm.obs()), comm_(&comm), kind_(kind) {
    comm.check_collective(fp, loc);
    // Entry-side injection point for every collective kind; the matching
    // exit-side point is an explicit fault_point("coll.post") in each
    // collective body (a destructor must not throw a rank-kill).
    comm.fault_point("coll.pre");
    if (!obs_) return;
    ++obs_->comm.collective_calls[obs::index_of(kind)];
    obs_->comm.collective_rounds[obs::index_of(kind)] += rounds;
    obs_->event(obs::EventKind::kCollectiveBegin, comm.clock().now(),
                obs::to_string(kind), rounds);
  }
  ~CollectiveScope() {
    comm_->check_collective_done();
    if (!obs_) return;
    obs_->event(obs::EventKind::kCollectiveEnd, comm_->clock().now(),
                obs::to_string(kind_));
  }

  CollectiveScope(const CollectiveScope&) = delete;
  CollectiveScope& operator=(const CollectiveScope&) = delete;

 private:
  obs::RankTelemetry* obs_;
  Comm* comm_;
  obs::CollectiveKind kind_;
};

}  // namespace detail

// Broadcast `value` from `root` to all ranks (binomial tree).
template <class T>
void bcast(Comm& comm, T& value, int root = 0,
           std::source_location loc = std::source_location::current()) {
  const int n = comm.size();
  const detail::CollectiveScope scope(
      comm, obs::CollectiveKind::kBcast, detail::tree_rounds(n),
      detail::fingerprint<T>(obs::CollectiveKind::kBcast, root), loc);
  if (n == 1) return;
  const int vrank = (comm.rank() - root + n) % n;

  if (vrank != 0) {
    const int parent_v = vrank ^ (vrank & -vrank);
    value = comm.recv_value<T>((parent_v + root) % n, tags::kBcast);
  }
  const int lsb = (vrank == 0) ? (1 << 30) : (vrank & -vrank);
  // Children are vrank + mask for every power of two below our lowest
  // set bit; send the largest subtree first so deep subtrees start early.
  int top = 1;
  while (top < lsb && (vrank | top) < n && top < n) top <<= 1;
  for (int mask = top >> 1; mask >= 1; mask >>= 1) {
    const int child_v = vrank | mask;
    if (child_v != vrank && child_v < n) {
      comm.send_value((child_v + root) % n, tags::kBcast, value);
    }
  }
  comm.fault_point("coll.post");
}

// Reduce all ranks' values onto rank `root` using `op(accumulated,
// incoming)`; `op` must be associative (binomial combination order).
// Non-root ranks return their partial accumulation.
template <class T, class Op>
T reduce(Comm& comm, T value, Op op, int root = 0,
         std::source_location loc = std::source_location::current()) {
  const int n = comm.size();
  const detail::CollectiveScope scope(
      comm, obs::CollectiveKind::kReduce, detail::tree_rounds(n),
      detail::fingerprint<T>(obs::CollectiveKind::kReduce, root,
                             typeid(Op).hash_code()),
      loc);
  const int vrank = (comm.rank() - root + n) % n;
  for (int mask = 1; mask < n; mask <<= 1) {
    if ((vrank & mask) != 0) {
      const int partner_v = vrank ^ mask;
      comm.send_value((partner_v + root) % n, tags::kReduce, value);
      break;
    }
    const int partner_v = vrank | mask;
    if (partner_v < n) {
      T incoming = comm.recv_value<T>((partner_v + root) % n, tags::kReduce);
      value = op(std::move(value), std::move(incoming));
    }
  }
  comm.fault_point("coll.post");
  return value;
}

// K-way reduce: same binomial communication schedule (and therefore the
// same tag/fingerprint behavior) as reduce(), but a parent collects ALL
// of its children's subtree values before combining, and hands them to
// `opk(accumulated, children)` in one call.  A k-way-capable operator —
// BoundedFpSet::merge_many is the motivating one — then performs a
// single cache-friendly multi-way pass instead of rewriting the
// accumulator once per child.  `opk` must be order-insensitive across
// children (the children arrive partner-order, lowest mask first).
// Non-root ranks return their partial accumulation.
template <class T, class OpK>
T reduce_kway(Comm& comm, T value, OpK opk, int root = 0,
              std::source_location loc = std::source_location::current()) {
  const int n = comm.size();
  const detail::CollectiveScope scope(
      comm, obs::CollectiveKind::kReduce, detail::tree_rounds(n),
      detail::fingerprint<T>(obs::CollectiveKind::kReduce, root,
                             typeid(OpK).hash_code()),
      loc);
  const int vrank = (comm.rank() - root + n) % n;
  std::vector<T> children;
  int mask = 1;
  for (; mask < n; mask <<= 1) {
    if ((vrank & mask) != 0) break;
    const int partner_v = vrank | mask;
    if (partner_v < n) {
      children.push_back(
          comm.recv_value<T>((partner_v + root) % n, tags::kReduce));
    }
  }
  if (!children.empty()) {
    value = opk(std::move(value), std::move(children));
  }
  if (mask < n) {
    const int parent_v = vrank ^ mask;
    comm.send_value((parent_v + root) % n, tags::kReduce, value);
  }
  comm.fault_point("coll.post");
  return value;
}

// Allreduce = binomial reduce to rank 0 + binomial broadcast, mirroring the
// paper's ALLREDUCE(HMERGE, LHashes) step.
template <class T, class Op>
T allreduce(Comm& comm, T value, Op op,
            std::source_location loc = std::source_location::current()) {
  // Rounds = reduce + bcast halves; the nested calls also count themselves
  // under their own kinds.
  const detail::CollectiveScope scope(
      comm, obs::CollectiveKind::kAllreduce,
      2 * detail::tree_rounds(comm.size()),
      detail::fingerprint<T>(obs::CollectiveKind::kAllreduce, -1,
                             typeid(Op).hash_code()),
      loc);
  value = reduce(comm, std::move(value), std::move(op), 0);
  bcast(comm, value, 0);
  comm.fault_point("coll.post");
  return value;
}

// Gather every rank's value at `root` (index == source rank).  Non-root
// ranks receive an empty vector.
template <class T>
std::vector<T> gather(Comm& comm, const T& value, int root = 0,
                      std::source_location loc =
                          std::source_location::current()) {
  const int n = comm.size();
  const detail::CollectiveScope scope(
      comm, obs::CollectiveKind::kGather,
      static_cast<std::uint64_t>(n > 0 ? n - 1 : 0),
      detail::fingerprint<T>(obs::CollectiveKind::kGather, root), loc);
  if (comm.rank() != root) {
    comm.send_value(root, tags::kGather, value);
    comm.fault_point("coll.post");
    return {};
  }
  std::vector<T> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    if (r == root) {
      out.push_back(value);
    } else {
      out.push_back(comm.recv_value<T>(r, tags::kGather));
    }
  }
  comm.fault_point("coll.post");
  return out;
}

// Scatter `values` (root-only, size == nranks) so each rank gets its slot.
template <class T>
T scatter(Comm& comm, const std::vector<T>& values, int root = 0,
          std::source_location loc = std::source_location::current()) {
  const int n = comm.size();
  const detail::CollectiveScope scope(
      comm, obs::CollectiveKind::kScatter,
      static_cast<std::uint64_t>(n > 0 ? n - 1 : 0),
      detail::fingerprint<T>(obs::CollectiveKind::kScatter, root), loc);
  if (comm.rank() == root) {
    for (int r = 0; r < n; ++r) {
      if (r != root) comm.send_value(r, tags::kScatter, values[r]);
    }
    comm.fault_point("coll.post");
    return values[static_cast<std::size_t>(root)];
  }
  T received = comm.recv_value<T>(root, tags::kScatter);
  comm.fault_point("coll.post");
  return received;
}

// Ring allgather: N-1 steps, each rank forwards the block it received in
// the previous step.  Returns the vector of all ranks' values by rank.
// The ring is modeled, not run: the host does one rendezvous in which each
// rank deposits its serialized value, and the ring's send/recv schedule is
// replayed on the sim clocks, CommStats and trace exactly as the n(n-1)
// messages would have charged them (detail::allgather_blocks).
template <class T>
std::vector<T> allgather(Comm& comm, const T& value,
                         std::source_location loc =
                             std::source_location::current()) {
  const int n = comm.size();
  const detail::CollectiveScope scope(
      comm, obs::CollectiveKind::kAllgather,
      static_cast<std::uint64_t>(n > 0 ? n - 1 : 0),
      detail::fingerprint<T>(obs::CollectiveKind::kAllgather, -1), loc);
  const int r = comm.rank();
  std::vector<T> out(static_cast<std::size_t>(n));
  out[static_cast<std::size_t>(r)] = value;
  if (n > 1) {
    const auto& round =
        detail::allgather_blocks(comm, tags::kAllgather, to_bytes(value));
    for (int i = 0; i < n; ++i) {
      if (i == r) continue;
      out[static_cast<std::size_t>(i)] = from_bytes<T>(round.block(i));
    }
  }
  comm.fault_point("coll.post");
  return out;
}

// Convenience numeric reductions.
template <class T>
T allreduce_sum(Comm& comm, T value,
                std::source_location loc = std::source_location::current()) {
  return allreduce(comm, value, [](T a, T b) { return a + b; }, loc);
}

template <class T>
T allreduce_max(Comm& comm, T value,
                std::source_location loc = std::source_location::current()) {
  return allreduce(comm, value, [](T a, T b) { return a > b ? a : b; }, loc);
}

}  // namespace simmpi
