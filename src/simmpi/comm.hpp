// Comm: the per-rank communication endpoint (MPI communicator analogue).
//
// Point-to-point operations are tagged and FIFO-ordered per (source, tag).
// Sends are buffered (never block); receives block until a matching message
// arrives.  Typed variants serialize through simmpi::OArchive/IArchive the
// way Boost.MPI serializes user data structures in the paper's prototype.
//
// With failure containment (RuntimeOptions::contain_failures) a Comm is a
// *view* over the surviving world: rank()/size() are dense over the current
// group, peers named in send/recv/put are dense group ranks, and shrink()
// — called by every survivor after catching RankDeadError — agrees on the
// dead set and re-ranks the group densely (ULFM MPI_Comm_shrink analogue).
// world_rank() stays the original numbering; stores, node topology, and
// telemetry stay world-keyed across shrinks.
#pragma once

#include <cstdint>
#include <source_location>
#include <span>
#include <vector>

#include "obs/telemetry.hpp"
#include "simmpi/check_hook.hpp"
#include "simmpi/archive.hpp"
#include "simmpi/runtime.hpp"
#include "simtime/cluster.hpp"

namespace collrep::simmpi {

class Comm;
class Window;

namespace detail {
// The rendezvous step of simmpi::allgather (collectives.hpp), not a
// collective of its own: deposits this rank's serialized value (`block`)
// and returns the completed round, whose block(r) is dense rank r's value
// until this rank's next allgather.  Leaves this rank's clock, CommStats,
// trace and checker exactly where the modeled ring's n - 1 send/recv
// steps on tags `tag_base + step` would have.  If the ring would have
// stalled behind a dead or shrinking rank, books the steps it would have
// completed and throws RankDeadError.  Requires a group of at least two
// ranks.
[[nodiscard]] const GatherRound& allgather_blocks(
    Comm& comm, int tag_base, std::span<const std::uint8_t> block);
}  // namespace detail

class Comm {
 public:
  Comm(RunState& state, int rank)
      : state_(&state),
        rank_(rank),
        obs_(state.telemetry() ? &state.telemetry()->rank(rank) : nullptr),
        check_(state.checker()),
        crank_(rank) {
    group_.resize(static_cast<std::size_t>(state.nranks()));
    for (int r = 0; r < state.nranks(); ++r) {
      group_[static_cast<std::size_t>(r)] = r;
    }
  }

  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;

  // Dense rank in the current (possibly shrunken) group.
  [[nodiscard]] int rank() const noexcept { return crank_; }
  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(group_.size());
  }
  // Original world numbering; never changes across shrinks.  Equal to
  // rank() until the first shrink.
  [[nodiscard]] int world_rank() const noexcept { return rank_; }
  [[nodiscard]] int world_size() const noexcept { return state_->nranks(); }
  // World rank of the dense group rank `r`.
  [[nodiscard]] int world_of(int r) const {
    return group_.at(static_cast<std::size_t>(r));
  }
  [[nodiscard]] const sim::ClusterConfig& cluster() const noexcept {
    return state_->cluster();
  }
  [[nodiscard]] int node() const noexcept {
    return cluster().node_of(rank_);
  }
  // Sum of the per-rank values (indexed by dense group rank, e.g. an
  // allgather result) over the group ranks on this rank's node.  Ranks map
  // to nodes through their world rank, so the sum stays right after a
  // shrink.  No communication.
  [[nodiscard]] std::uint64_t node_total(
      std::span<const std::uint64_t> per_rank) const {
    std::uint64_t total = 0;
    for (int r = 0; r < size(); ++r) {
      if (cluster().node_of(world_of(r)) == node()) {
        total += per_rank[static_cast<std::size_t>(r)];
      }
    }
    return total;
  }

  [[nodiscard]] sim::SimClock& clock() noexcept { return clock_; }
  [[nodiscard]] const sim::SimClock& clock() const noexcept { return clock_; }

  // This rank's telemetry slice, or nullptr when the run has no
  // obs::Telemetry attached (RuntimeOptions::telemetry).
  [[nodiscard]] obs::RankTelemetry* obs() const noexcept { return obs_; }
  // Charge local compute time to this rank.
  void charge(double seconds) noexcept { clock_.advance(seconds); }

  // Consult the attached fault schedule (RuntimeOptions::faults) at a
  // named injection point; no-op without one.  The hook may fail this
  // rank's store in place or throw to kill the rank.
  void fault_point(const char* point,
                   std::uint64_t epoch = FaultHook::kAnyEpoch) {
    if (auto* f = state_->faults()) {
      f->at_point(rank_, point, epoch, clock_.now());
    }
  }

  // Runtime-verification hooks (RuntimeOptions::checker); each is a
  // single untaken branch when no checker is attached.  check_collective
  // may throw on this rank when the checker decides the fingerprint
  // diverges from its peers'.
  void check_collective(const CollFingerprint& fp,
                        const std::source_location& loc) {
    if (check_) check_->on_collective(rank_, fp, CallSite::from(loc));
  }
  void check_collective_done() noexcept {
    if (check_) check_->on_collective_done(rank_);
  }

  // -- point to point -------------------------------------------------------
  void send_bytes(int dst, int tag, std::span<const std::uint8_t> data);
  [[nodiscard]] std::vector<std::uint8_t> recv_bytes(int src, int tag);

  template <class T>
  void send_value(int dst, int tag, const T& value) {
    OArchive ar;
    ar.put(value);
    send_bytes(dst, tag, ar.bytes());
  }

  template <class T>
  [[nodiscard]] T recv_value(int src, int tag) {
    const auto bytes = recv_bytes(src, tag);
    IArchive ar(bytes);
    return ar.get<T>();
  }

  // -- synchronization ------------------------------------------------------
  void barrier(std::source_location loc = std::source_location::current());

  // -- failure handling -----------------------------------------------------
  // What one shrink agreed on; returned identically on every survivor.
  struct ShrinkInfo {
    std::uint64_t epoch = 0;        // 1-based shrink count of this run
    double agreement_start_s = 0.0;  // max survivor clock entering agreement
    // Surviving world ranks, ascending == the new dense group (index =
    // new dense rank, value = world rank).
    std::vector<int> alive_world;
    // The group as it was before this shrink (index = previous dense rank,
    // value = world rank) — the key map for data that was placed under the
    // previous numbering (e.g. ChunkStore manifests).
    std::vector<int> prev_group_world;
    struct Dead {
      int prev_rank = -1;   // dense rank in the previous group
      int world_rank = -1;  // original world rank
    };
    std::vector<Dead> dead;  // ascending by prev_rank
  };

  // True once this rank has observed a peer death (a collective threw
  // RankDeadError, or a receive failed); every collective entry re-throws
  // until shrink() is called.
  [[nodiscard]] bool failure_pending() const noexcept { return fail_pending_; }

  // The ULFM-style recovery collective: every survivor must call it after
  // catching RankDeadError.  Parks this rank, revokes the old world's
  // pending communication (unblocking stragglers into RankDeadError of
  // their own), agrees on the dead set, drains in-flight messages, and
  // returns with the group densely re-ranked over the survivors.  Safe to
  // call proactively (no death pending): it then degrades to an
  // agreement-priced barrier with an empty dead list.
  ShrinkInfo shrink();

  // -- one-sided windows ----------------------------------------------------
  // Collective: every rank exposes `region`, memory it owns (the
  // MPI_Win_create analogue).  Puts land in those bytes; the caller keeps
  // the memory alive and unmoved until the Window is freed or destroyed,
  // and may reuse or free it afterwards.  Opens the window's first access
  // epoch (see Window::fence).
  [[nodiscard]] Window win_create(
      std::span<std::uint8_t> region,
      std::source_location loc = std::source_location::current());
  // Collective: every rank exposes `local_bytes` of zero-initialized memory
  // that the returned Window owns (the MPI_Win_allocate analogue).
  [[nodiscard]] Window win_create(
      std::size_t local_bytes,
      std::source_location loc = std::source_location::current());

  // Modeled bytes this rank has put through windows in the epoch that is
  // currently open (for DumpStats); reset to 0 by every fence.
  [[nodiscard]] std::uint64_t epoch_bytes_put() const noexcept {
    return epoch_bytes_put_;
  }

  // Modeled bytes that were delivered *into this rank's* window regions
  // during the most recently completed epoch.  Counted at fence delivery
  // (puts are not visible before the fence), so it reads 0 until the first
  // fence and is overwritten by each subsequent one.
  [[nodiscard]] std::uint64_t epoch_bytes_recv() const noexcept {
    return epoch_bytes_recv_;
  }

 private:
  friend class Window;
  friend const detail::GatherRound& detail::allgather_blocks(
      Comm& comm, int tag_base, std::span<const std::uint8_t> block);

  // Books this rank's side of the modeled ring allgather into CommStats,
  // the trace and the checker: the first `sends` sends and `recvs`
  // receives on tags tag_base + step.  block_bytes holds the block sizes
  // by ring position and `self` is this rank's position in it; step s
  // sends the block that started s positions behind this rank and
  // receives the one s + 1 behind.  send_ts/recv_ts hold the replayed
  // clock after each step (read only with telemetry attached);
  // pred_flow_seq is the predecessor's first flow sequence.
  void book_ring_steps(int tag_base, int sends, int recvs,
                       std::span<const std::uint64_t> block_bytes, int self,
                       std::span<const double> send_ts,
                       std::span<const double> recv_ts,
                       std::uint64_t pred_flow_seq);

  // Collective entry gate: a death observed once must not be lost to an
  // exception swallowed in a destructor (Window::release), so it re-arms
  // every collective until shrink() clears it.
  void raise_pending_failure() const {
    if (fail_pending_) throw RankDeadError{};
  }

  RunState* state_;
  int rank_;  // world rank (thread identity, mailbox/store/topology key)
  obs::RankTelemetry* obs_ = nullptr;
  CheckHook* check_ = nullptr;
  sim::SimClock clock_;
  std::uint64_t epoch_bytes_put_ = 0;
  std::uint64_t epoch_bytes_recv_ = 0;
  int next_win_id_ = 0;  // advances identically on all ranks (collective)
  std::uint64_t flow_seq_ = 0;  // per-rank send counter -> Message::flow ids
  // Rendezvous generation.  barrier() and Window::fence() are the only
  // operations that enter RunState::sync, and both are collective, so this
  // counter advances identically on all ranks; collprof uses it to group
  // each rank's kSyncBegin/kSyncEnd pair into one cross-rank rendezvous.
  // Survivors can diverge transiently while a failure unwinds (some threw
  // at entry, some from inside sync); shrink() realigns every survivor to
  // the generation after the agreement step.
  std::uint64_t sync_seq_ = 0;
  // Current dense group: index = dense rank, value = world rank.
  std::vector<int> group_;
  int crank_;  // this rank's dense position in group_
  bool fail_pending_ = false;
  // Death count already absorbed by a shrink; a SyncResult reporting more
  // means an unagreed death happened.
  std::uint64_t known_deaths_ = 0;
};

// RAII handle to one collective window.  Movable, not copyable; must be
// freed (collectively) via free() or destruction on all ranks.
class Window {
 public:
  Window() = default;
  Window(Comm& comm, int id, detail::WindowState& ws);
  Window(Window&& o) noexcept { swap(o); }
  Window& operator=(Window&& o) noexcept {
    if (this != &o) {
      release();
      swap(o);
    }
    return *this;
  }
  ~Window() { release(); }

  Window(const Window&) = delete;
  Window& operator=(const Window&) = delete;

  [[nodiscard]] bool valid() const noexcept { return comm_ != nullptr; }

  // One-sided put of `data` into `target`'s region at byte `offset`.
  // Callers are responsible for disjoint offsets (guaranteed by CALC_OFF;
  // an attached checker flags overlapping ranges from different ranks).
  // `modeled_bytes` overrides the wire size charged to the cost model —
  // metadata-only exchanges copy small records but must still pay for the
  // payload bytes they stand in for.  0 means "use data.size()".
  void put(int target, std::size_t offset, std::span<const std::uint8_t> data,
           std::uint64_t modeled_bytes = 0,
           std::source_location loc = std::source_location::current());

  // This rank's exposed region.
  [[nodiscard]] std::span<std::uint8_t> local();
  [[nodiscard]] std::span<const std::uint8_t> local() const;

  // Collective: completes the access epoch.  All puts issued before the
  // fence are visible in target regions after it; simulated clocks advance
  // by the bulk-transfer time of the epoch (max over node NICs).  By
  // default the next access epoch opens immediately; kFenceNoSucceed
  // (the MPI_MODE_NOSUCCEED analogue) declares that no RMA follows, so an
  // attached checker flags any later put as an epoch violation.
  void fence(unsigned flags = 0,
             std::source_location loc = std::source_location::current());

  // Collective: releases the window on all ranks.
  void free() { release(); }

 private:
  // This rank's puts in the open epoch.  Kept per rank so a put takes no
  // shared lock; fold_epoch() adds them into the shared WindowState once,
  // before the fence rendezvous or at release.
  struct EpochTally {
    std::uint64_t intra = 0;      // bytes to targets on this rank's node
    std::uint64_t inter_out = 0;  // bytes leaving this rank's node
    std::vector<std::uint64_t> inter_in;   // by destination node
    std::vector<std::uint64_t> rank_recv;  // by target world rank
    std::vector<int> targets;  // world ranks with nonzero rank_recv
    double last_put_issue = 0.0;
    bool any = false;  // a put was issued since the last fold
  };

  void release();
  void fold_epoch();
  void swap(Window& o) noexcept {
    std::swap(comm_, o.comm_);
    std::swap(id_, o.id_);
    std::swap(ws_, o.ws_);
    std::swap(tally_, o.tally_);
    std::swap(owned_, o.owned_);
  }

  friend class Comm;  // the allocating win_create hands over owned_

  Comm* comm_ = nullptr;
  int id_ = -1;
  detail::WindowState* ws_ = nullptr;  // valid until every rank released
  EpochTally tally_;
  // The region of an allocating win_create; freed only after release()
  // detached it.  Empty for a window over caller memory.
  std::vector<std::uint8_t> owned_;
};

}  // namespace collrep::simmpi
