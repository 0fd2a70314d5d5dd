// Cluster cost model.
//
// The paper evaluates on the Shamrock testbed: 34 nodes, 12 ranks each,
// Gigabit Ethernet, one local HDD per node.  This repository executes the
// real communication pattern in-process (src/simmpi) and charges *simulated
// time* for every byte hashed, transferred, merged or stored, using the
// first-order resource model below.  Completion times reported by benches
// are simulated seconds, deterministic across runs, and independent of host
// load — see DESIGN.md §1 for why this preserves the paper's result shapes.
#pragma once

#include <algorithm>
#include <cstdint>

namespace collrep::sim {

struct ClusterConfig {
  // Topology --------------------------------------------------------------
  int ranks_per_node = 12;  // Xeon X5670: 6 cores / 12 hw threads

  // Network (Gigabit Ethernet, full duplex, one NIC per node) --------------
  double net_bandwidth_bps = 125.0e6;  // bytes/s each direction
  double net_latency_s = 50.0e-6;
  // Intra-node transfers go through shared memory.
  double mem_bandwidth_bps = 5.0e9;

  // Local storage (1 TB HDD per node, shared by all its ranks) -------------
  double hdd_write_bps = 100.0e6;
  double hdd_read_bps = 120.0e6;

  // Application compute rate used by the mini-apps to charge per-iteration
  // solver time (sustained, not peak — Xeon X5670 class).
  double flops_per_second = 2.0e9;

  // Content-defined chunking rolling-hash throughput (gear hash).
  double cdc_bps = 1.0e9;

  // CPU-side constants ------------------------------------------------------
  // Per-fingerprint cost of one HMERGE operation (a modeled constant:
  // the figures' simulated reduction times are pinned to it, whatever the
  // host-side merge costs).
  double merge_entry_cost_s = 10.0e-9;
  // Fixed per-chunk bookkeeping during local dedup (map insert, metadata).
  double chunk_overhead_s = 120.0e-9;

  [[nodiscard]] int node_of(int rank) const noexcept {
    return rank / std::max(1, ranks_per_node);
  }
  [[nodiscard]] int node_count(int nranks) const noexcept {
    const int rpn = std::max(1, ranks_per_node);
    return (nranks + rpn - 1) / rpn;
  }
  [[nodiscard]] bool same_node(int a, int b) const noexcept {
    return node_of(a) == node_of(b);
  }

  // Point-to-point message transfer time (latency + serialization).
  [[nodiscard]] double message_time(int src, int dst,
                                    std::uint64_t bytes) const noexcept {
    const double bw = same_node(src, dst) ? mem_bandwidth_bps : net_bandwidth_bps;
    return net_latency_s + static_cast<double>(bytes) / bw;
  }

  // Shamrock-like defaults at paper scale.
  static ClusterConfig shamrock() noexcept { return ClusterConfig{}; }
};

// Per-rank simulated clock.  Monotone; collectives align clocks across
// ranks (see simmpi::Comm).
class SimClock {
 public:
  [[nodiscard]] double now() const noexcept { return now_s_; }
  void advance(double seconds) noexcept {
    if (seconds > 0) now_s_ += seconds;
  }
  // Clamp to `t` if `t` is in the future (message arrival, barrier release).
  void at_least(double t) noexcept { now_s_ = std::max(now_s_, t); }
  void reset(double t = 0.0) noexcept { now_s_ = t; }

 private:
  double now_s_ = 0.0;
};

// Splits a time interval into named phase contributions; used by DumpStats.
struct PhaseBreakdown {
  double hash_s = 0.0;       // chunking + fingerprinting + local dedup
  double reduction_s = 0.0;  // collective HMERGE allreduce + broadcast
  double planning_s = 0.0;   // load allgather, shuffle, offset calculation
  double exchange_s = 0.0;   // one-sided chunk puts between partners
  double storage_s = 0.0;    // commit to the local storage device

  [[nodiscard]] double total() const noexcept {
    return hash_s + reduction_s + planning_s + exchange_s + storage_s;
  }

  PhaseBreakdown& operator+=(const PhaseBreakdown& o) noexcept {
    hash_s += o.hash_s;
    reduction_s += o.reduction_s;
    planning_s += o.planning_s;
    exchange_s += o.exchange_s;
    storage_s += o.storage_s;
    return *this;
  }
};

}  // namespace collrep::sim
