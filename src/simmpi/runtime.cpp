#include "simmpi/runtime.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>

#include "obs/telemetry.hpp"
#include "simmpi/comm.hpp"

namespace collrep::simmpi {

namespace detail {

void Mailbox::push(int src, int tag, Message msg) {
  {
    std::scoped_lock lk(mu_);
    queues_[key(src, tag)].push_back(std::move(msg));
  }
  cv_.notify_all();
}

Message Mailbox::pop(int src, int tag, const RunState& state) {
  std::unique_lock lk(mu_);
  const Key k = key(src, tag);
  // The mailbox wait IS the thread-backed scheduler's parking
  // primitive; the fiber port replaces this whole path with a
  // yield-to-scheduler.  collcheck: fiber-safe
  cv_.wait(lk, [&] {
    const auto it = queues_.find(k);
    if (it != queues_.end() && !it->second.empty()) return true;
    if (state.aborted().load()) return true;
    // The sender provably cannot deliver anymore: it died, or it is parked
    // in a shrink rendezvous that revoked the old world's communication
    // plan.  A merely-parked sender with no revoke in flight cannot happen
    // (parking sets the revoke first), and a live sender may still deliver
    // even while a revoke is pending — so keep waiting for it.
    const std::uint8_t st = state.member_status(src);
    return st == kMemberDead || (st == kMemberParked && state.revoked());
  });
  const auto it = queues_.find(k);
  if (it != queues_.end() && !it->second.empty()) {
    Message msg = std::move(it->second.front());
    it->second.pop_front();
    if (it->second.empty()) queues_.erase(it);
    return msg;
  }
  if (state.aborted().load()) throw AbortedError{};
  throw RankDeadError{};
}

void Mailbox::notify_state_change() { cv_.notify_all(); }

void Mailbox::drain() {
  std::scoped_lock lk(mu_);
  queues_.clear();
}

void replay_ring(const sim::ClusterConfig& cluster, const RingChain& chain,
                 int n, bool closed, bool record, RingTimes& t) {
  const auto m = chain.world.size();
  const auto steps = static_cast<std::size_t>(n - 1);
  t.send_ts.assign(record ? m * steps : 0, 0.0);
  t.recv_ts.assign(record ? m * steps : 0, 0.0);
  // The per-message terms of Comm::send_bytes / recv_bytes, computed once:
  // copy[o] is block o's copy-out/copy-in time (bytes / mem_bandwidth),
  // wire[i] the flight time of each block position i sends
  // (ClusterConfig::message_time: latency + bytes / link bandwidth).
  std::vector<double> copy(m);
  std::vector<double> wire_mem(m);
  std::vector<double> wire_net(m);
  std::vector<std::uint8_t> intra(m);
  for (std::size_t i = 0; i < m; ++i) {
    const auto b = static_cast<double>(chain.block_bytes[i]);
    copy[i] = b / cluster.mem_bandwidth_bps;
    wire_mem[i] = cluster.net_latency_s + b / cluster.mem_bandwidth_bps;
    wire_net[i] = cluster.net_latency_s + b / cluster.net_bandwidth_bps;
    intra[i] = cluster.same_node(chain.world[i], chain.dst_world[i]) ? 1 : 0;
  }
  std::vector<sim::SimClock> clk(m);
  for (std::size_t i = 0; i < m; ++i) clk[i].reset(chain.clock[i]);
  std::vector<double> arrival(m, 0.0);
  for (std::size_t s = 0; s < steps; ++s) {
    // Position i forwards the block of origin i - s: in a closed ring the
    // origin wraps, in a chain position i sends only while s <= i.
    std::size_t first = closed ? 0 : s;
    std::size_t origin = closed ? (m - s) % m : 0;
    for (std::size_t i = first; i < m; ++i) {
      clk[i].advance(copy[origin]);
      if (record) t.send_ts[i * steps + s] = clk[i].now();
      arrival[i] =
          clk[i].now() + (intra[i] ? wire_mem[origin] : wire_net[origin]);
      if (++origin == m) origin = 0;
    }
    // Position i receives the block of origin i - 1 - s from i - 1; in a
    // chain only while s < i.
    first = closed ? 0 : s + 1;
    origin = closed ? m - 1 - s : 0;
    for (std::size_t i = first; i < m; ++i) {
      const std::size_t src = i == 0 ? m - 1 : i - 1;
      clk[i].at_least(arrival[src]);
      clk[i].advance(copy[origin]);
      if (record) t.recv_ts[i * steps + s] = clk[i].now();
      if (++origin == m) origin = 0;
    }
  }
  t.exit.clear();
  for (const auto& c : clk) t.exit.push_back(c.now());
}

}  // namespace detail

RunState::RunState(int nranks, RuntimeOptions opts)
    : nranks_(nranks), opts_(std::move(opts)), live_count_(nranks) {
  if (nranks < 1) throw std::invalid_argument("simmpi: nranks must be >= 1");
  for (auto& round : gather_rounds_) {
    round.slots.resize(static_cast<std::size_t>(nranks));
  }
  mailboxes_.reserve(static_cast<std::size_t>(nranks));
  for (int i = 0; i < nranks; ++i) {
    mailboxes_.push_back(std::make_unique<detail::Mailbox>());
  }
  member_ = std::make_unique<std::atomic<std::uint8_t>[]>(
      static_cast<std::size_t>(nranks));
  for (int i = 0; i < nranks; ++i) {
    member_[static_cast<std::size_t>(i)].store(detail::kMemberLive);
  }
  if (opts_.telemetry) opts_.telemetry->begin_run(nranks);
}

void RunState::abort() noexcept {
  aborted_.store(true);
  wake_blocked_ranks();
}

void RunState::wake_blocked_ranks() {
  for (auto& mb : mailboxes_) mb->notify_state_change();
  wake_parked_ranks();
}

void RunState::wake_parked_ranks() {
  wake_.fetch_add(1);
  wake_.notify_all();
}

double RunState::rendezvous_cost(int participants) const noexcept {
  if (participants <= 1) return 0.0;
  const double rounds =
      std::ceil(std::log2(static_cast<double>(participants)));
  return 2.0 * rounds * opts_.cluster.net_latency_s;
}

double RunState::barrier_cost() const noexcept {
  return rendezvous_cost(nranks_);
}

int RunState::live_count() const {
  std::scoped_lock lk(sync_mu_);
  return live_count_;
}

std::uint64_t RunState::death_count() const {
  std::scoped_lock lk(sync_mu_);
  return death_count_;
}

void RunState::complete_sync_locked() {
  const double max_time = sync_max_;
  sync_release_ = sync_on_release_ ? (*sync_on_release_)(max_time)
                                   : max_time + rendezvous_cost(live_count_);
  sync_deaths_ = death_count_;
  sync_count_ = 0;
  sync_max_ = 0.0;
  sync_on_release_ = nullptr;
  sync_gen_.fetch_add(1);  // publishes the release to lock-free readers
  wake_parked_ranks();
}

RunState::SyncResult RunState::sync(
    double my_time, const std::function<double(double)>& on_release) {
  std::unique_lock lk(sync_mu_);
  if (aborted_.load()) throw AbortedError{};
  // Once a shrink revoked the old world, no rendezvous of that world can
  // complete (the parked ranks will never arrive) — unwind immediately.
  if (revoked_.load()) throw RankDeadError{};
  const std::uint64_t gen = sync_gen_.load();
  sync_max_ = std::max(sync_max_, my_time);
  if (on_release && !sync_on_release_) {
    // All ranks pass the same semantic closure for the same collective
    // (SPMD); keep the first so a completion-by-death (whose agent has no
    // closure of its own) can still compute the release time.  The owner
    // stays blocked in this rendezvous until release, so the pointer
    // cannot dangle.
    sync_on_release_ = &on_release;
  }
  if (++sync_count_ == live_count_) {
    complete_sync_locked();
    return SyncResult{sync_release_, sync_deaths_};
  }
  // A released result stays put until the next release, which needs this
  // rank to arrive again, so it may be read without the lock.
  for (;;) {
    // Read the wake count before the checks: an event after them bumps it,
    // so the wait below cannot miss it.
    const std::uint32_t seen = wake_.load();
    if (sync_gen_.load() != gen) return SyncResult{sync_release_, sync_deaths_};
    if (aborted_.load() || revoked_.load()) break;
    lk.unlock();
    // Scheduler-internal barrier parking (replaced wholesale by the fiber
    // port).  collcheck: fiber-safe
    wake_.wait(seen);
    // The common wake-up: the rendezvous released.  Return without the
    // lock, so the woken ranks do not queue on it.
    if (sync_gen_.load() != gen) return SyncResult{sync_release_, sync_deaths_};
    lk.lock();
  }
  // Woken without a release: the run aborted, or a shrink revoked this
  // rendezvous.  Withdraw our contribution (the last one out clears the
  // accumulator so a post-shrink rendezvous starts clean) and unwind.
  if (--sync_count_ == 0) {
    sync_max_ = 0.0;
    sync_on_release_ = nullptr;
  }
  if (aborted_.load()) throw AbortedError{};
  throw RankDeadError{};
}

void RunState::rank_died(int rank) {
  {
    std::scoped_lock lk(sync_mu_);
    member_[static_cast<std::size_t>(rank)].store(detail::kMemberDead);
    --live_count_;
    ++death_count_;
    if (live_count_ > 0) {
      if (!revoked_.load() && sync_count_ > 0 && sync_count_ == live_count_) {
        // Every survivor is already waiting in a rendezvous this death
        // leaves complete; release them (they learn of the death from
        // SyncResult::deaths at the release).
        complete_sync_locked();
      } else {
        // The death may be the last event a pending shrink was waiting on.
        maybe_complete_shrink_locked();
      }
    }
  }
  wake_blocked_ranks();
  reclaim_dead_windows();
}

RunState::ShrinkResult RunState::shrink_rendezvous(int rank, double my_time) {
  std::unique_lock lk(sync_mu_);
  if (aborted_.load()) throw AbortedError{};
  member_[static_cast<std::size_t>(rank)].store(detail::kMemberParked);
  ++parked_count_;
  shrink_max_ = std::max(shrink_max_, my_time);
  const std::uint64_t gen = shrink_gen_.load();
  revoked_.store(true);
  // Wake stragglers blocked in sync()/pop()/gather() so they observe the
  // revoke and this rank's parking (a receive from this rank, or an
  // allgather stalled behind it, can only fail once it is parked), then
  // re-check completion.
  lk.unlock();
  wake_blocked_ranks();
  lk.lock();
  maybe_complete_shrink_locked();
  lk.unlock();
  // The result stays put until the next shrink, which needs this rank to
  // park again, so it is read without the lock.
  for (;;) {
    const std::uint32_t seen = wake_.load();
    if (shrink_gen_.load() != gen) return shrink_result_;
    if (aborted_.load()) throw AbortedError{};
    // Scheduler-internal shrink parking (see sync()).  collcheck: fiber-safe
    wake_.wait(seen);
  }
}

void RunState::maybe_complete_shrink_locked() {
  if (!revoked_.load()) return;
  if (live_count_ <= 0 || parked_count_ != live_count_) return;
  // Failure agreement: every survivor is parked (so no rank of the old
  // world can make progress) and every death is published.  The completing
  // thread — the last parker, or a dying rank whose death left everyone
  // else parked — has exclusive access to all shared state.
  for (auto& mb : mailboxes_) mb->drain();
  ShrinkResult res;
  res.start = shrink_max_;
  res.deaths = death_count_;
  res.epoch = ++shrink_epoch_;
  res.alive.reserve(static_cast<std::size_t>(live_count_));
  for (int r = 0; r < nranks_; ++r) {
    if (member_[static_cast<std::size_t>(r)].load() != detail::kMemberDead) {
      res.alive.push_back(r);
    }
  }
  // Cost of the agreement protocol itself: an allreduce-shaped vote over
  // the survivors (two log-depth sweeps), charged even for a lone survivor
  // (it still has to time out on its dead peers).
  const double participants = std::max(2.0, static_cast<double>(live_count_));
  res.release = res.start + 2.0 * std::ceil(std::log2(participants)) *
                                opts_.cluster.net_latency_s;
  if (opts_.checker) opts_.checker->on_shrink(res.alive);
  for (int r : res.alive) {
    member_[static_cast<std::size_t>(r)].store(detail::kMemberLive);
  }
  parked_count_ = 0;
  shrink_max_ = 0.0;
  // Burn one rendezvous generation on the agreement so collprof's
  // kSyncBegin/End pairing cannot collide with the next barrier.  No sync
  // waiter exists at this point (a waiter would not be parked), so
  // advancing the generation wakes nobody spuriously.
  res.sync_gen = sync_gen_.fetch_add(1);
  // Every allgather deposit of the old world is void; no survivor is
  // inside gather() (it would not be parked).
  gather_count_ = 0;
  gather_gen_.fetch_add(1);
  shrink_result_ = std::move(res);
  revoked_.store(false);
  shrink_gen_.fetch_add(1);
  wake_parked_ranks();
}

RunState::GatherOutcome RunState::gather(int pos, const std::vector<int>& group,
                                         std::uint64_t known_deaths,
                                         double clock, std::uint64_t flow_seq,
                                         std::span<const std::uint8_t> block) {
  std::unique_lock lk(sync_mu_);
  if (aborted_.load()) throw AbortedError{};
  const std::uint64_t gen = gather_gen_.load();
  detail::GatherRound& round = gather_rounds_[gen & 1u];
  auto& slot = round.slots[static_cast<std::size_t>(
      group[static_cast<std::size_t>(pos)])];
  slot.gen = gen;
  slot.clock = clock;
  slot.flow_seq = flow_seq;
  slot.block.assign(block.begin(), block.end());
  if (++gather_count_ == static_cast<int>(group.size())) {
    complete_gather_locked(group);
    return GatherOutcome{&round, {}};
  }
  // A predecessor that will never deposit (dead, or parked in a shrink)
  // stalls the ring; only then can the chain behind it resolve early, and
  // only then can this deposit be what a waiting successor needs.
  const auto failure_pending = [&] {
    return revoked_.load() || death_count_ > known_deaths;
  };
  if (failure_pending()) wake_parked_ranks();
  int k = 0;
  for (;;) {
    // Read the wake count before the checks: an event after them bumps it,
    // so the wait below cannot miss it.
    const std::uint32_t seen = wake_.load();
    if (gather_gen_.load() != gen) return GatherOutcome{&round, {}};
    if (aborted_.load()) throw AbortedError{};
    if (failure_pending()) k = gather_stall_locked(group, pos, gen);
    if (k > 0) break;
    lk.unlock();
    // Scheduler-internal allgather parking (replaced wholesale by the fiber
    // port).  collcheck: fiber-safe
    wake_.wait(seen);
    // The common wake-up: the round completed.  Return without the lock,
    // so the woken ranks do not queue on it.
    if (gather_gen_.load() != gen) return GatherOutcome{&round, {}};
    lk.lock();
  }
  // The k ranks from the stalled predecessor's successor up to the caller
  // all deposited; hand back their inputs for the partial replay.
  const int n = static_cast<int>(group.size());
  GatherOutcome out;
  auto& ch = out.chain;
  for (int c = 0; c < k; ++c) {
    const int p = (pos - (k - 1) + c + n) % n;
    const int w = group[static_cast<std::size_t>(p)];
    const auto& sl = round.slots[static_cast<std::size_t>(w)];
    ch.world.push_back(w);
    ch.dst_world.push_back(group[static_cast<std::size_t>((p + 1) % n)]);
    ch.clock.push_back(sl.clock);
    ch.block_bytes.push_back(sl.block.size());
    ch.flow_seq.push_back(sl.flow_seq);
  }
  return out;
}

int RunState::gather_stall_locked(const std::vector<int>& group, int pos,
                                  std::uint64_t gen) const {
  const int n = static_cast<int>(group.size());
  for (int k = 1; k < n; ++k) {
    const int w = group[static_cast<std::size_t>((pos - k + n) % n)];
    if (gather_rounds_[gen & 1u].slots[static_cast<std::size_t>(w)].gen ==
        gen) {
      continue;
    }
    // The nearest predecessor that has not deposited: the ring stalls
    // behind it exactly when it can no longer send (Mailbox::pop's rule).
    const std::uint8_t st = member_status(w);
    const bool never = st == detail::kMemberDead ||
                       (st == detail::kMemberParked && revoked_.load());
    return never ? k : 0;
  }
  return 0;
}

void RunState::complete_gather_locked(const std::vector<int>& group) {
  const int n = static_cast<int>(group.size());
  const std::uint64_t gen = gather_gen_.load();
  detail::GatherRound& round = gather_rounds_[gen & 1u];
  detail::RingChain& ring = round.ring;
  ring.world.assign(group.begin(), group.end());
  ring.dst_world.clear();
  ring.clock.clear();
  ring.block_bytes.clear();
  ring.flow_seq.clear();
  for (int i = 0; i < n; ++i) {
    const int w = group[static_cast<std::size_t>(i)];
    const auto& slot = round.slots[static_cast<std::size_t>(w)];
    if (slot.gen != gen) {
      throw std::logic_error("simmpi: allgather slot of rank " +
                             std::to_string(w) + " was not filled");
    }
    ring.dst_world.push_back(group[static_cast<std::size_t>((i + 1) % n)]);
    ring.clock.push_back(slot.clock);
    ring.block_bytes.push_back(slot.block.size());
    ring.flow_seq.push_back(slot.flow_seq);
  }
  // Per-step clocks are needed only to stamp the trace's send/recv events.
  detail::replay_ring(opts_.cluster, ring, n, /*closed=*/true,
                      /*record=*/opts_.telemetry != nullptr, round.times);
  gather_count_ = 0;
  gather_gen_.fetch_add(1);  // publishes the round to lock-free readers
  wake_parked_ranks();
}

detail::WindowState& RunState::window_register(
    int rank, int id, std::span<std::uint8_t> region) {
  std::scoped_lock lk(win_mu_);
  if (static_cast<std::size_t>(id) >= windows_.size()) {
    windows_.resize(static_cast<std::size_t>(id) + 1);
  }
  auto& slot = windows_[static_cast<std::size_t>(id)];
  if (!slot) {
    slot = std::make_unique<detail::WindowState>(
        nranks_, opts_.cluster.node_count(nranks_));
  }
  slot->regions[static_cast<std::size_t>(rank)].bytes = region;
  return *slot;
}

void RunState::window_free(int rank, int id) {
  std::scoped_lock lk(win_mu_);
  auto& ws = windows_.at(static_cast<std::size_t>(id));
  if (!ws) throw std::logic_error("simmpi: double free of window");
  auto& flag = ws->freed[static_cast<std::size_t>(rank)];
  if (flag) throw std::logic_error("simmpi: double free of window");
  flag = 1;
  {
    std::scoped_lock region_lk(ws->locks[static_cast<std::size_t>(rank)]);
    ws->regions[static_cast<std::size_t>(rank)].detached = true;
  }
  for (int r = 0; r < nranks_; ++r) {
    if (!ws->freed[static_cast<std::size_t>(r)] &&
        member_status(r) != detail::kMemberDead) {
      return;
    }
  }
  ws.reset();  // every rank released (or died); reclaim memory, keep the slot
}

void RunState::reclaim_dead_windows() {
  // A rank dying after every survivor already freed a window would leave it
  // unreclaimed forever (nobody frees again); sweep on each death.
  std::scoped_lock lk(win_mu_);
  for (auto& ws : windows_) {
    if (!ws) continue;
    bool reclaim = true;
    for (int r = 0; r < nranks_; ++r) {
      if (!ws->freed[static_cast<std::size_t>(r)] &&
          member_status(r) != detail::kMemberDead) {
        reclaim = false;
        break;
      }
    }
    if (reclaim) ws.reset();
  }
}

Runtime::Runtime(int nranks, RuntimeOptions opts)
    : nranks_(nranks), opts_(std::move(opts)) {
  if (nranks < 1) throw std::invalid_argument("simmpi: nranks must be >= 1");
}

void Runtime::run(const std::function<void(Comm&)>& body) {
  RunState state(nranks_, opts_);

  std::mutex err_mu;
  std::exception_ptr first_error;
  auto record_primary = [&] {
    {
      std::scoped_lock lk(err_mu);
      if (!first_error) first_error = std::current_exception();
    }
    state.abort();
  };

  if (opts_.checker) {
    // The abort callback references `state`, which outlives the checker's
    // use of it: run_end() below stops the checker's watchdog before this
    // frame returns.
    opts_.checker->run_begin(nranks_, [&state] { state.abort(); });
  }

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks_));
  for (int r = 0; r < nranks_; ++r) {
    threads.emplace_back([&, r] {
      Comm comm(state, r);
      try {
        body(comm);
      } catch (const AbortedError&) {
        // Secondary failure caused by a peer's abort; the primary
        // exception is already recorded (or will be by its owner).
      } catch (const RankDeadError&) {
        // A survivor let a peer's death escape instead of shrinking: the
        // death signal would be silently lost, so fail the run loudly.
        record_primary();
      } catch (const RankFailure&) {
        if (opts_.contain_failures) {
          // Fail-stop containment: the rank's stack has fully unwound
          // (windows released, scopes closed).  Deregister it from the
          // checker first so the watchdog never reports survivors as
          // waiting on a corpse, then publish the death — which may
          // itself release a pending rendezvous or complete a shrink.
          if (opts_.checker) opts_.checker->on_rank_dead(r);
          if (opts_.telemetry) {
            opts_.telemetry->metrics().add("simmpi.rank_deaths");
          }
          state.rank_died(r);
        } else {
          record_primary();
        }
      } catch (...) {
        record_primary();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (opts_.checker) {
    // The checker may hold the reason the run must fail even though no
    // rank thread threw a primary error (stuck-rank reports abort the run
    // from the watchdog; message leaks only show up once all ranks exit).
    auto checker_error = opts_.checker->run_end(state.aborted().load());
    if (checker_error && !first_error) first_error = checker_error;
  }
  if (opts_.telemetry) opts_.telemetry->end_run();

  if (first_error) std::rethrow_exception(first_error);
  if (state.aborted().load()) {
    throw std::runtime_error("simmpi: run aborted without recorded cause");
  }
  if (opts_.contain_failures && state.live_count() == 0) {
    throw std::runtime_error(
        "simmpi: every rank died; nothing survived to shrink");
  }
}

}  // namespace collrep::simmpi
