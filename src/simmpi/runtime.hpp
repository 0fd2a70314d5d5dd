// In-process SPMD message-passing runtime (MPI substitute).
//
// Ranks are threads executing the same body; they exchange tagged messages
// through per-rank mailboxes, synchronize through clock-aligning barriers,
// and expose one-sided windows with MPI-like create/put/fence semantics.
// Every operation charges simulated time on the owning rank's SimClock
// according to the sim::ClusterConfig cost model, so a run yields both real
// results and deterministic simulated phase timings (see DESIGN.md §1).
//
// Failure containment (RuntimeOptions::contain_failures): by default an
// injected rank kill (RankFailure) aborts the whole run.  With containment
// on, the killed rank's thread unwinds cleanly, its death is published to
// the shared membership table, and survivors learn about it at their next
// collective entry via RankDeadError — the FT-MPI/ULFM-style error-on-
// failure model.  The application then calls Comm::shrink() (all survivors
// collectively) to agree on the dead set and continue in a dense re-ranked
// smaller world (see DESIGN.md §12).
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <vector>

#include "simmpi/check_hook.hpp"
#include "simtime/cluster.hpp"

namespace collrep::obs {
class Telemetry;
}  // namespace collrep::obs

namespace collrep::simmpi {

class Comm;
class RunState;

// Thrown inside ranks blocked on communication when a sibling rank failed;
// the originating exception is what Runtime::run() rethrows.
class AbortedError : public std::runtime_error {
 public:
  AbortedError() : std::runtime_error("simmpi: run aborted by peer failure") {}
};

// Base class of injected fail-stop rank failures (fault::RankKilledError
// derives from it; defined here so the runtime can recognize a rank death
// without depending on the fault layer).  With contain_failures off (the
// default) the run aborts and Runtime::run() rethrows it; with containment
// on it is absorbed and the rank simply ceases to exist.
class RankFailure : public std::runtime_error {
 public:
  RankFailure(int rank, const std::string& what)
      : std::runtime_error(what), rank_(rank) {}

  [[nodiscard]] int rank() const noexcept { return rank_; }

 private:
  int rank_;
};

// Thrown on a *surviving* rank (contain_failures mode) when a peer died:
// at the next collective entry once the death is agreed-visible, or from a
// blocked receive whose sender can no longer deliver.  The application
// handles it by having every survivor call Comm::shrink() and continuing
// in the shrunken world; letting it escape the rank body is a primary
// error (the run then aborts loudly rather than losing the signal).
class RankDeadError : public std::runtime_error {
 public:
  RankDeadError()
      : std::runtime_error(
            "simmpi: a peer rank died; every survivor must call "
            "Comm::shrink() to continue in the surviving world") {}
};

// Fault-injection attachment point (see src/fault for the concrete
// schedule).  The runtime and the dump pipeline consult the hook at named
// injection points — before/after collectives, at window fences, at store
// commits — always on the consulting rank's own thread, so an
// implementation may fail that rank's store in place or throw a
// RankFailure to kill the rank itself (aborting the run, or — with
// RuntimeOptions::contain_failures — leaving the survivors to shrink and
// continue).
class FaultHook {
 public:
  // Passed as `epoch` by sites that have no checkpoint-epoch context
  // (collectives, fences); schedules match such visits only with
  // epoch-wildcard events.
  static constexpr std::uint64_t kAnyEpoch = ~0ull;

  virtual ~FaultHook() = default;
  // `point` has static storage duration ("coll.pre", "win.fence",
  // "dump.exchange.mid", ...); `sim_now` is the consulting rank's
  // simulated clock.  Called concurrently by all rank threads.
  virtual void at_point(int rank, const char* point, std::uint64_t epoch,
                        double sim_now) = 0;
};

struct RuntimeOptions {
  sim::ClusterConfig cluster = sim::ClusterConfig::shamrock();
  // Optional observability attachment (src/obs).  nullptr (the default)
  // disables all telemetry; the instrumentation then costs one untaken
  // branch per site.  The Telemetry object must outlive the Runtime::run()
  // calls it observes and may span several of them.
  obs::Telemetry* telemetry = nullptr;
  // Optional fault-injection attachment (src/fault).  nullptr (the
  // default) disables every injection point at the cost of one untaken
  // branch.  Must outlive the runs it observes.
  FaultHook* faults = nullptr;
  // Optional runtime-verification attachment (src/check).  nullptr (the
  // default) disables every verification site at the cost of one untaken
  // branch.  Must outlive the runs it observes.
  CheckHook* checker = nullptr;
  // Fail-stop containment: absorb RankFailure throws instead of aborting,
  // so survivors can Comm::shrink() and continue (DESIGN.md §12).  Off by
  // default — without an application prepared to handle RankDeadError,
  // aborting is the honest behavior.
  bool contain_failures = false;
};

namespace detail {

// Membership states of one rank (RunState::member_status).
inline constexpr std::uint8_t kMemberLive = 0;
// Parked inside the shrink rendezvous, waiting for the other survivors.
inline constexpr std::uint8_t kMemberParked = 1;
inline constexpr std::uint8_t kMemberDead = 2;

struct Message {
  std::vector<std::uint8_t> payload;
  double arrival_time = 0.0;
  // Sender-assigned causal id ((src_rank << 32) | per-rank seq); the
  // receiver re-emits it so tools/collprof can pair the kSend/kRecv trace
  // events into a happens-before edge.
  std::uint64_t flow = 0;
};

class Mailbox {
 public:
  void push(int src, int tag, Message msg);
  // Blocks until a message with (src, tag) is available, the run aborts
  // (AbortedError), or the sender provably cannot deliver — it is dead, or
  // it is parked in a shrink rendezvous that revoked the old world
  // (RankDeadError).  `src` is a world rank.
  Message pop(int src, int tag, const RunState& state);
  // Wakes blocked poppers so they re-evaluate abort/membership state.
  void notify_state_change();
  // Drops every queued message (shrink: the old world's in-flight traffic
  // must not leak tag-matched into the new world).
  void drain();

 private:
  using Key = std::uint64_t;
  static Key key(int src, int tag) noexcept {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
           static_cast<std::uint32_t>(tag);
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::map<Key, std::deque<Message>> queues_;
};

struct WindowState {
  explicit WindowState(int nranks, int nnodes)
      : buffers(nranks),
        locks(std::make_unique<std::mutex[]>(static_cast<std::size_t>(nranks))),
        node_inter_sent(nnodes, 0),
        node_inter_recv(nnodes, 0),
        node_intra(nnodes, 0),
        rank_recv(static_cast<std::size_t>(nranks), 0),
        rank_recv_epoch(static_cast<std::size_t>(nranks), 0),
        freed(static_cast<std::size_t>(nranks), 0) {}

  std::vector<std::vector<std::uint8_t>> buffers;  // one region per rank
  std::unique_ptr<std::mutex[]> locks;             // guards buffers[i]

  // Per-epoch accounting for the bulk-synchronous transfer model: the
  // fence charges max over nodes of NIC-in / NIC-out / memory traffic.
  std::mutex acct_mu;
  std::vector<std::uint64_t> node_inter_sent;
  std::vector<std::uint64_t> node_inter_recv;
  std::vector<std::uint64_t> node_intra;
  // Modeled bytes put toward each rank in the open epoch; the fence swaps
  // this into rank_recv_epoch so every rank can read what was delivered to
  // it (Comm::epoch_bytes_recv) without racing next-epoch puts.
  std::vector<std::uint64_t> rank_recv;
  std::vector<std::uint64_t> rank_recv_epoch;
  double last_put_issue = 0.0;
  // Per-rank release flags (world numbering): the window is reclaimed once
  // every rank has either freed it or died.  A shared counter cannot tell
  // "dead rank freed during unwind, then survivors freed" from a double
  // free, so the flags are explicit.
  std::vector<std::uint8_t> freed;
};

// One rank's deposit in the allgather rendezvous (RunState::gather).
struct GatherSlot {
  // Rendezvous generation the slot was filled in; a slot stamped with an
  // older generation belongs to a rank that has not arrived.
  std::uint64_t gen = ~0ull;
  double clock = 0.0;          // entry clock
  std::uint64_t flow_seq = 0;  // the rank's next Message::flow sequence
  std::vector<std::uint8_t> block;  // serialized value
};

// Inputs of the modeled ring allgather schedule over consecutive ring
// positions (see replay_ring).  Position i sends to dst_world[i] and
// receives from position i - 1.
struct RingChain {
  std::vector<int> world;      // world rank per position
  std::vector<int> dst_world;  // world rank position i sends to
  std::vector<double> clock;   // entry clock per position
  std::vector<std::uint64_t> block_bytes;  // serialized size per position
  std::vector<std::uint64_t> flow_seq;     // entry flow sequence per position
};

// Clocks of the replayed schedule: exit clock per position and, when
// recorded, the clock after each send / receive, at [i * (n - 1) + step].
struct RingTimes {
  std::vector<double> exit;
  std::vector<double> send_ts;
  std::vector<double> recv_ts;
};

// Replays the modeled message schedule of the ring allgather over a group
// of `n` ranks into `out`, with the operations, in the order, that
// Comm::send_bytes and Comm::recv_bytes apply them: at step s position i
// sends the block of origin i - s (advance by its copy-out, arrival =
// clock + message_time), then receives the block of origin i - 1 - s
// (at_least(arrival), advance by its copy-in).  With `closed` the chain
// is the whole ring: every position runs all n - 1 steps and position 0
// receives from position n - 1.  Otherwise the chain starts behind a
// rank that never sends: position i completes min(i + 1, n - 1) sends
// and i receives.
void replay_ring(const sim::ClusterConfig& cluster, const RingChain& chain,
                 int n, bool closed, bool record, RingTimes& out);

// One allgather generation.  RunState keeps two and alternates by
// generation parity: generation g + 2 can start only after every rank
// arrived for g + 1, that is, after every rank finished reading round g.
// So the buffers are reused in place, and each rank's block buffer is
// only ever resized by its own thread.
struct GatherRound {
  std::vector<GatherSlot> slots;  // by world rank
  // Replay inputs and clocks of the completed round, by dense group rank.
  RingChain ring;
  RingTimes times;

  // Serialized value of dense group rank `r`.
  [[nodiscard]] std::span<const std::uint8_t> block(int r) const {
    const int w = ring.world[static_cast<std::size_t>(r)];
    return slots[static_cast<std::size_t>(w)].block;
  }
};

}  // namespace detail

// Shared state of one SPMD run; owned by Runtime, referenced by Comms.
class RunState {
 public:
  RunState(int nranks, RuntimeOptions opts);

  [[nodiscard]] int nranks() const noexcept { return nranks_; }
  [[nodiscard]] const sim::ClusterConfig& cluster() const noexcept {
    return opts_.cluster;
  }

  detail::Mailbox& mailbox(int rank) { return *mailboxes_[rank]; }
  [[nodiscard]] const std::atomic<bool>& aborted() const noexcept {
    return aborted_;
  }

  void abort() noexcept;

  [[nodiscard]] obs::Telemetry* telemetry() const noexcept {
    return opts_.telemetry;
  }

  [[nodiscard]] FaultHook* faults() const noexcept { return opts_.faults; }

  [[nodiscard]] CheckHook* checker() const noexcept { return opts_.checker; }

  [[nodiscard]] bool contain_failures() const noexcept {
    return opts_.contain_failures;
  }

  // -- membership (failure containment) -------------------------------------
  // detail::kMemberLive / kMemberParked / kMemberDead; `rank` is a world
  // rank.  Lock-free read — exact at collective boundaries, advisory
  // in between (a send racing a fresh death is delivered-then-drained).
  [[nodiscard]] std::uint8_t member_status(int rank) const noexcept {
    return member_[static_cast<std::size_t>(rank)].load();
  }
  // True while a shrink rendezvous is in progress: the old world's
  // communication plan is revoked, so blocked ranks must unwind.
  [[nodiscard]] bool revoked() const noexcept { return revoked_.load(); }
  // Publishes `rank`'s fail-stop death (called on the dying rank's own
  // thread, after its stack unwound).  Completes any rendezvous the death
  // unblocks and wakes every blocked receiver.
  void rank_died(int rank);
  [[nodiscard]] int live_count() const;
  [[nodiscard]] std::uint64_t death_count() const;

  // Clock-aligning rendezvous: every live rank contributes its clock; the
  // completing agent (last arriver, or a rank death that leaves every
  // survivor arrived) maps the maximum through `on_release` (null for a
  // plain barrier) and all ranks return that release time plus the death
  // count observed at release — the failure-agreement input survivors use
  // to detect deaths at collective boundaries.
  struct SyncResult {
    double release = 0.0;
    std::uint64_t deaths = 0;
  };
  SyncResult sync(double my_time,
                  const std::function<double(double)>& on_release = nullptr);

  // The shrink rendezvous behind Comm::shrink(): parks the calling rank,
  // revokes the old world (unblocking stragglers into RankDeadError), and
  // — once every live rank is parked — drains all mailboxes, fixes the
  // agreed dead set, realigns an attached checker, and releases everyone
  // into the shrunken world at a common clock.
  struct ShrinkResult {
    double start = 0.0;    // max clock over parked survivors (latency base)
    double release = 0.0;  // aligned clock after the agreement step
    std::uint64_t deaths = 0;  // total deaths agreed so far
    std::uint64_t epoch = 0;   // 1-based shrink count
    std::uint64_t sync_gen = 0;  // rendezvous generation of the agreement
    std::vector<int> alive;      // surviving world ranks, ascending
  };
  ShrinkResult shrink_rendezvous(int rank, double my_time);

  // The allgather rendezvous behind simmpi::allgather.  Every member of
  // `group` (world ranks in dense order; `pos` is the caller's index)
  // deposits its serialized block, entry clock and next flow sequence; the
  // last arriver replays the ring's modeled schedule once, and every
  // member returns the completed round.  It stays valid until the
  // caller's next gather().  No message moves on the host.
  //
  // When a predecessor in the ring can never deposit (it died, or it is
  // parked in a shrink), the ring would have stalled behind it.  The
  // caller then gets no round but `chain`: the inputs of the ranks from
  // that predecessor's successor up to itself, whose partial schedule
  // (replay_ring, open chain) is exactly what the ring would have run
  // before its receive failed.  Throws AbortedError if the run aborts.
  struct GatherOutcome {
    const detail::GatherRound* round = nullptr;
    detail::RingChain chain;  // filled when round is null
  };
  // `known_deaths` is the caller's agreed death count (Comm::shrink): any
  // death beyond it is a group member that will never deposit.
  GatherOutcome gather(int pos, const std::vector<int>& group,
                       std::uint64_t known_deaths, double clock,
                       std::uint64_t flow_seq,
                       std::span<const std::uint8_t> block);

  // Windows.  Creation is collective: every rank registers the same id
  // (ids come from a per-rank counter that advances identically on all
  // ranks because win_create is collective) along with its region size.
  // The returned state stays valid until every rank freed the window or
  // died.
  detail::WindowState& window_register(int rank, int id, std::size_t bytes);
  void window_free(int rank, int id);

  [[nodiscard]] double barrier_cost() const noexcept;

 private:
  // All require sync_mu_ held.
  void complete_sync_locked();
  void maybe_complete_shrink_locked();
  void complete_gather_locked(const std::vector<int>& group);
  [[nodiscard]] int gather_stall_locked(const std::vector<int>& group,
                                        int pos, std::uint64_t gen) const;
  void wake_blocked_ranks();
  void wake_gather_waiters();
  void reclaim_dead_windows();
  [[nodiscard]] double rendezvous_cost(int participants) const noexcept;

  int nranks_;
  RuntimeOptions opts_;
  std::vector<std::unique_ptr<detail::Mailbox>> mailboxes_;
  std::atomic<bool> aborted_{false};

  // Membership: lock-free status per rank; the counters that must move
  // consistently with rendezvous state are guarded by sync_mu_.
  std::unique_ptr<std::atomic<std::uint8_t>[]> member_;
  std::atomic<bool> revoked_{false};

  mutable std::mutex sync_mu_;
  std::condition_variable sync_cv_;
  int live_count_;        // guarded by sync_mu_
  int parked_count_ = 0;  // guarded by sync_mu_
  std::uint64_t death_count_ = 0;  // guarded by sync_mu_
  int sync_count_ = 0;
  std::uint64_t sync_gen_ = 0;
  double sync_max_ = 0.0;
  double sync_release_ = 0.0;
  std::uint64_t sync_deaths_ = 0;
  // First non-null on_release of the in-progress rendezvous; stays valid
  // because its owner blocks inside sync() until the release.
  const std::function<double(double)>* sync_on_release_ = nullptr;
  // Shrink rendezvous state (guarded by sync_mu_).
  std::uint64_t shrink_gen_ = 0;
  std::uint64_t shrink_epoch_ = 0;
  double shrink_max_ = 0.0;
  ShrinkResult shrink_result_;
  // Allgather rendezvous state (guarded by sync_mu_, except that a
  // completed round is read without it; see GatherRound).  The generation
  // is separate from sync_gen_, which collprof's kSyncBegin/End ids follow.
  // It is written under sync_mu_ but atomic, so a woken waiter can see its
  // round complete without re-taking the lock: a condition variable would
  // hand sync_mu_ from one of the n - 1 woken ranks to the next.
  std::array<detail::GatherRound, 2> gather_rounds_;
  std::atomic<std::uint64_t> gather_gen_{0};
  int gather_count_ = 0;
  // Bumped (and waited on) for every event a gather waiter must look at:
  // completion, a death, a shrink parker, an abort, and a deposit while a
  // failure is pending.
  std::atomic<std::uint32_t> gather_wake_{0};

  std::mutex win_mu_;
  std::vector<std::unique_ptr<detail::WindowState>> windows_;
};

// Runs `body` as an SPMD program over `nranks` ranks (threads).  If any
// rank throws, the run aborts and the first non-abort exception is
// rethrown from run().  With RuntimeOptions::contain_failures, RankFailure
// throws instead end only the failing rank; the run succeeds if the
// survivors shrink and run to completion.
class Runtime {
 public:
  explicit Runtime(int nranks, RuntimeOptions opts = {});

  void run(const std::function<void(Comm&)>& body);

  [[nodiscard]] int nranks() const noexcept { return nranks_; }
  [[nodiscard]] const RuntimeOptions& options() const noexcept { return opts_; }

 private:
  int nranks_;
  RuntimeOptions opts_;
};

}  // namespace collrep::simmpi
