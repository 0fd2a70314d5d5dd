#include "simmpi/comm.hpp"

#include <algorithm>
#include <cstring>
#include <exception>
#include <stdexcept>

namespace collrep::simmpi {

void Comm::send_bytes(int dst, int tag, std::span<const std::uint8_t> data) {
  if (state_->aborted().load()) throw AbortedError{};
  if (dst < 0 || dst >= size()) {
    throw std::out_of_range("simmpi: send to invalid rank");
  }
  const int wdst = group_[static_cast<std::size_t>(dst)];
  // Before the mailbox push, so the checker observes a message's send
  // strictly before its receive.  Checker/obs/topology stay world-keyed.
  if (check_) check_->on_send(rank_, wdst, tag, data.size());
  const auto& cl = cluster();
  if (obs_) {
    auto& cs = obs_->comm;
    ++cs.sent_messages;
    cs.sent_bytes += data.size();
    auto& per_tag = cs.sent_by_tag[tag];
    ++per_tag.messages;
    per_tag.bytes += data.size();
    (cl.same_node(rank_, wdst) ? cs.intra_node_sent_bytes
                               : cs.inter_node_sent_bytes) += data.size();
  }
  // Sender-side copy-out overhead, then in-flight latency/bandwidth.
  clock_.advance(static_cast<double>(data.size()) / cl.mem_bandwidth_bps);
  const std::uint64_t flow =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(rank_)) << 32) |
      static_cast<std::uint32_t>(flow_seq_++);
  if (obs_) {
    obs_->event(obs::EventKind::kSend, clock_.now(), "send", data.size(),
                static_cast<std::uint64_t>(wdst), flow);
  }
  detail::Message msg{
      std::vector<std::uint8_t>(data.begin(), data.end()),
      clock_.now() + cl.message_time(rank_, wdst, data.size()), flow};
  state_->mailbox(wdst).push(rank_, tag, std::move(msg));
}

std::vector<std::uint8_t> Comm::recv_bytes(int src, int tag) {
  if (src < 0 || src >= size()) {
    throw std::out_of_range("simmpi: recv from invalid rank");
  }
  const int wsrc = group_[static_cast<std::size_t>(src)];
  detail::Message msg;
  try {
    msg = state_->mailbox(rank_).pop(wsrc, tag, *state_);
  } catch (const RankDeadError&) {
    fail_pending_ = true;
    throw;
  }
  if (check_) check_->on_recv(rank_, wsrc, tag, msg.payload.size());
  if (obs_) {
    ++obs_->comm.recv_messages;
    obs_->comm.recv_bytes += msg.payload.size();
  }
  clock_.at_least(msg.arrival_time);
  clock_.advance(static_cast<double>(msg.payload.size()) /
                 cluster().mem_bandwidth_bps);
  if (obs_) {
    // Stamped after the arrival/copy-in advance: ts is when the receive
    // completed, so the matching kSend -> kRecv edge spans the flight time.
    obs_->event(obs::EventKind::kRecv, clock_.now(), "recv",
                msg.payload.size(), static_cast<std::uint64_t>(wsrc),
                msg.flow);
  }
  return std::move(msg.payload);
}

void Comm::book_ring_steps(int tag_base, int sends, int recvs,
                           std::span<const std::uint64_t> block_bytes,
                           int self, std::span<const double> send_ts,
                           std::span<const double> recv_ts,
                           std::uint64_t pred_flow_seq) {
  const std::uint64_t first_seq = flow_seq_;
  flow_seq_ += static_cast<std::uint64_t>(sends);
  if (!check_ && !obs_) return;
  const int n = size();
  const int wdst = group_[static_cast<std::size_t>((crank_ + 1) % n)];
  const int wsrc = group_[static_cast<std::size_t>((crank_ - 1 + n) % n)];
  // Size of the block that started j ring positions behind this rank.
  const auto behind = [&](int j) {
    const int p = self - j;
    return block_bytes[static_cast<std::size_t>(
        p >= 0 ? p : p + static_cast<int>(block_bytes.size()))];
  };
  const int steps = std::max(sends, recvs);
  if (check_) {
    for (int s = 0; s < steps; ++s) {
      if (s < sends) check_->on_send(rank_, wdst, tag_base + s, behind(s));
      if (s < recvs) check_->on_recv(rank_, wsrc, tag_base + s, behind(s + 1));
    }
  }
  if (!obs_) return;
  const auto flow_id = [](int w, std::uint64_t seq) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(w)) << 32) |
           static_cast<std::uint32_t>(seq);
  };
  auto& cs = obs_->comm;
  // The step tags are consecutive, so the per-tag counters are one ordered
  // walk through the map rather than a lookup per step.
  auto per_tag = cs.sent_by_tag.lower_bound(tag_base);
  std::uint64_t sent_bytes = 0;
  std::uint64_t recv_bytes = 0;
  for (int s = 0; s < steps; ++s) {
    const auto us = static_cast<std::size_t>(s);
    if (s < sends) {
      const int tag = tag_base + s;
      const std::uint64_t b = behind(s);
      sent_bytes += b;
      if (per_tag == cs.sent_by_tag.end() || per_tag->first != tag) {
        per_tag =
            cs.sent_by_tag.emplace_hint(per_tag, tag, obs::TagTraffic{});
      }
      ++per_tag->second.messages;
      per_tag->second.bytes += b;
      ++per_tag;
      obs_->event(obs::EventKind::kSend, send_ts[us], "send", b,
                  static_cast<std::uint64_t>(wdst),
                  flow_id(rank_, first_seq + us));
    }
    if (s < recvs) {
      const std::uint64_t b = behind(s + 1);
      recv_bytes += b;
      obs_->event(obs::EventKind::kRecv, recv_ts[us], "recv", b,
                  static_cast<std::uint64_t>(wsrc),
                  flow_id(wsrc, pred_flow_seq + us));
    }
  }
  cs.sent_messages += static_cast<std::uint64_t>(sends);
  cs.sent_bytes += sent_bytes;
  (cluster().same_node(rank_, wdst) ? cs.intra_node_sent_bytes
                                    : cs.inter_node_sent_bytes) += sent_bytes;
  cs.recv_messages += static_cast<std::uint64_t>(recvs);
  cs.recv_bytes += recv_bytes;
}

namespace detail {

const GatherRound& allgather_blocks(Comm& comm, int tag_base,
                                    std::span<const std::uint8_t> block) {
  const int n = comm.size();
  const int pos = comm.crank_;
  const int steps = n - 1;
  auto out = comm.state_->gather(pos, comm.group_, comm.known_deaths_,
                                 comm.clock_.now(), comm.flow_seq_, block);
  if (out.round) {
    const GatherRound& res = *out.round;
    std::span<const double> send_ts;
    std::span<const double> recv_ts;
    if (!res.times.send_ts.empty()) {
      const auto row = static_cast<std::size_t>(pos) *
                       static_cast<std::size_t>(steps);
      send_ts = std::span(res.times.send_ts).subspan(
          row, static_cast<std::size_t>(steps));
      recv_ts = std::span(res.times.recv_ts).subspan(
          row, static_cast<std::size_t>(steps));
    }
    comm.book_ring_steps(
        tag_base, steps, steps, res.ring.block_bytes, pos, send_ts, recv_ts,
        res.ring.flow_seq[static_cast<std::size_t>((pos - 1 + n) % n)]);
    comm.clock_.at_least(res.times.exit[static_cast<std::size_t>(pos)]);
    return res;
  }
  // The ring stalls behind a rank that can never send: replay the k-rank
  // chain from that rank's successor up to this one (its last position),
  // book the k sends and k - 1 receives this rank completed, and fail like
  // its next receive would.
  const RingChain& chain = out.chain;
  const int k = static_cast<int>(chain.world.size());
  RingTimes times;
  replay_ring(comm.cluster(), chain, n, /*closed=*/false,
              /*record=*/comm.obs_ != nullptr, times);
  std::span<const double> send_ts;
  std::span<const double> recv_ts;
  if (!times.send_ts.empty()) {
    const auto row =
        static_cast<std::size_t>(k - 1) * static_cast<std::size_t>(steps);
    send_ts = std::span(times.send_ts).subspan(row,
                                               static_cast<std::size_t>(steps));
    recv_ts = std::span(times.recv_ts).subspan(row,
                                               static_cast<std::size_t>(steps));
  }
  comm.book_ring_steps(
      tag_base, k, k - 1, chain.block_bytes, k - 1, send_ts, recv_ts,
      k >= 2 ? chain.flow_seq[static_cast<std::size_t>(k - 2)] : 0);
  comm.clock_.at_least(times.exit[static_cast<std::size_t>(k - 1)]);
  comm.fail_pending_ = true;
  throw RankDeadError{};
}

}  // namespace detail

void Comm::barrier(std::source_location loc) {
  raise_pending_failure();
  check_collective(CollFingerprint{.op = CollOp::kBarrier}, loc);
  const std::uint64_t gen = sync_seq_++;
  if (obs_) {
    ++obs_->comm.barriers;
    obs_->event(obs::EventKind::kSyncBegin, clock_.now(), "barrier", 0, 0,
                gen);
  }
  RunState::SyncResult sr;
  try {
    sr = state_->sync(clock_.now());
  } catch (const RankDeadError&) {
    fail_pending_ = true;
    throw;
  }
  clock_.at_least(sr.release);
  if (obs_) {
    obs_->event(obs::EventKind::kSyncEnd, clock_.now(), "barrier", 0, 0, gen);
  }
  check_collective_done();
  if (sr.deaths > known_deaths_) {
    // A peer died since the last agreement.  Every survivor observes the
    // same death count at the same rendezvous, so all of them throw here
    // uniformly — the collective completed, the *world* is what failed.
    fail_pending_ = true;
    throw RankDeadError{};
  }
}

Comm::ShrinkInfo Comm::shrink() {
  const double entry = clock_.now();
  const auto res = state_->shrink_rendezvous(rank_, entry);
  clock_.at_least(res.release);

  ShrinkInfo info;
  info.epoch = res.epoch;
  info.agreement_start_s = res.start;
  info.alive_world = res.alive;
  info.prev_group_world = group_;
  for (std::size_t i = 0; i < group_.size(); ++i) {
    if (!std::binary_search(res.alive.begin(), res.alive.end(), group_[i])) {
      info.dead.push_back(
          ShrinkInfo::Dead{static_cast<int>(i), group_[i]});
    }
  }

  // Dense re-rank over the survivors.  res.alive is ascending and every
  // previous group member that did not die is in it, so the new group
  // preserves the relative order of survivors.
  group_ = res.alive;
  const auto self = std::find(group_.begin(), group_.end(), rank_);
  crank_ = static_cast<int>(self - group_.begin());
  fail_pending_ = false;
  known_deaths_ = res.deaths;
  epoch_bytes_put_ = 0;  // any half-open epoch died with the old world
  // Realign the rendezvous generation: the agreement consumed exactly one
  // global generation (RunState burned it), regardless of how far this
  // rank's counter drifted while the failure unwound.
  sync_seq_ = res.sync_gen + 1;

  if (obs_) {
    obs_->event(obs::EventKind::kSyncBegin, entry, "shrink", info.dead.size(),
                static_cast<std::uint64_t>(group_.size()), res.sync_gen);
    obs_->event(obs::EventKind::kSyncEnd, clock_.now(), "shrink",
                info.dead.size(), static_cast<std::uint64_t>(group_.size()),
                res.sync_gen);
  }
  if (auto* t = state_->telemetry(); t && crank_ == 0) {
    t->metrics().add("simmpi.shrinks");
    t->metrics().set("simmpi.world_size", static_cast<double>(group_.size()));
  }
  return info;
}

Window Comm::win_create(std::span<std::uint8_t> region,
                        std::source_location loc) {
  raise_pending_failure();
  const int id = next_win_id_++;
  check_collective(CollFingerprint{.op = CollOp::kWinCreate, .root = id}, loc);
  if (check_) check_->on_win_create(rank_, id, region.size());
  if (obs_) ++obs_->comm.windows_created;
  auto& ws = state_->window_register(rank_, id, region);
  barrier();  // all regions exposed before any put
  check_collective_done();
  return Window(*this, id, ws);
}

Window Comm::win_create(std::size_t local_bytes, std::source_location loc) {
  std::vector<std::uint8_t> owned(local_bytes, 0);
  // Moving a vector keeps its heap block, so the registered span stays
  // valid once the Window holds the vector.
  Window win = win_create(std::span<std::uint8_t>{owned}, loc);
  win.owned_ = std::move(owned);
  return win;
}

Window::Window(Comm& comm, int id, detail::WindowState& ws)
    : comm_(&comm), id_(id), ws_(&ws) {
  tally_.inter_in.assign(ws.node_inter_recv.size(), 0);
  tally_.rank_recv.assign(ws.rank_recv.size(), 0);
}

void Window::put(int target, std::size_t offset,
                 std::span<const std::uint8_t> data,
                 std::uint64_t modeled_bytes, std::source_location loc) {
  if (!comm_) throw std::logic_error("simmpi: put on invalid window");
  if (modeled_bytes == 0) modeled_bytes = data.size();
  auto& ws = *ws_;
  if (target < 0 || target >= comm_->size()) {
    throw std::out_of_range("simmpi: put to invalid rank");
  }
  const int wtarget = comm_->group_[static_cast<std::size_t>(target)];
  if (auto* ck = comm_->check_) {
    ck->on_put(comm_->rank_, id_, wtarget, offset, data.size(),
               CallSite::from(loc));
  }
  {
    std::scoped_lock lk(ws.locks[static_cast<std::size_t>(wtarget)]);
    const auto& region = ws.regions[static_cast<std::size_t>(wtarget)];
    if (offset + data.size() > region.bytes.size()) {
      throw std::out_of_range("simmpi: put beyond window bounds");
    }
    // A detached region's owner released it (a rank that died mid-epoch):
    // nobody reads it, and its memory may already be gone.
    if (!region.detached && !data.empty()) {
      std::memcpy(region.bytes.data() + offset, data.data(), data.size());
    }
  }
  const auto& cl = comm_->cluster();
  const int src_node = cl.node_of(comm_->world_rank());
  const int dst_node = cl.node_of(wtarget);
  if (src_node == dst_node) {
    tally_.intra += modeled_bytes;
  } else {
    tally_.inter_out += modeled_bytes;
    tally_.inter_in[static_cast<std::size_t>(dst_node)] += modeled_bytes;
  }
  auto& recv = tally_.rank_recv[static_cast<std::size_t>(wtarget)];
  if (recv == 0 && modeled_bytes > 0) tally_.targets.push_back(wtarget);
  recv += modeled_bytes;
  tally_.last_put_issue =
      std::max(tally_.last_put_issue, comm_->clock().now());
  tally_.any = true;
  comm_->epoch_bytes_put_ += modeled_bytes;
  if (auto* t = comm_->obs_) {
    auto& cs = t->comm;
    ++cs.puts;
    cs.put_bytes += modeled_bytes;
    (src_node == dst_node ? cs.intra_node_put_bytes
                          : cs.inter_node_put_bytes) += modeled_bytes;
    t->event(obs::EventKind::kPut, comm_->clock().now(), "put", modeled_bytes,
             static_cast<std::uint64_t>(wtarget));
  }
  comm_->charge(static_cast<double>(modeled_bytes) / cl.mem_bandwidth_bps);
}

std::span<std::uint8_t> Window::local() {
  if (!comm_) throw std::logic_error("simmpi: local() on invalid window");
  return ws_->regions[static_cast<std::size_t>(comm_->world_rank())].bytes;
}

std::span<const std::uint8_t> Window::local() const {
  if (!comm_) throw std::logic_error("simmpi: local() on invalid window");
  return ws_->regions[static_cast<std::size_t>(comm_->world_rank())].bytes;
}

void Window::fold_epoch() {
  if (!tally_.any) return;
  auto& ws = *ws_;
  const std::size_t src_node = static_cast<std::size_t>(
      comm_->cluster().node_of(comm_->world_rank()));
  {
    std::scoped_lock lk(ws.acct_mu);
    ws.node_intra[src_node] += tally_.intra;
    ws.node_inter_sent[src_node] += tally_.inter_out;
    for (std::size_t n = 0; n < tally_.inter_in.size(); ++n) {
      ws.node_inter_recv[n] += tally_.inter_in[n];
    }
    for (const int t : tally_.targets) {
      ws.rank_recv[static_cast<std::size_t>(t)] +=
          tally_.rank_recv[static_cast<std::size_t>(t)];
    }
    ws.last_put_issue = std::max(ws.last_put_issue, tally_.last_put_issue);
  }
  tally_.intra = 0;
  tally_.inter_out = 0;
  std::fill(tally_.inter_in.begin(), tally_.inter_in.end(), 0);
  for (const int t : tally_.targets) {
    tally_.rank_recv[static_cast<std::size_t>(t)] = 0;
  }
  tally_.targets.clear();
  tally_.last_put_issue = 0.0;
  tally_.any = false;
}

void Window::fence(unsigned flags, std::source_location loc) {
  if (!comm_) throw std::logic_error("simmpi: fence on invalid window");
  comm_->raise_pending_failure();
  comm_->check_collective(
      CollFingerprint{.op = CollOp::kWinFence, .root = id_, .flags = flags},
      loc);
  comm_->fault_point("win.fence");
  auto& ws = *ws_;
  const auto& cl = comm_->cluster();
  const std::uint64_t gen = comm_->sync_seq_++;
  if (auto* t = comm_->obs_) {
    t->event(obs::EventKind::kSyncBegin, comm_->clock().now(), "fence",
             comm_->epoch_bytes_put_, static_cast<std::uint64_t>(id_), gen);
  }
  // This rank's puts join the epoch's shared accounting before the
  // rendezvous; the release closure below reads the totals.
  fold_epoch();
  RunState::SyncResult sr;
  try {
    // The release closure captures only window/cluster state, never the
    // calling rank's frame beyond `ws`/`cl` — it may run on whichever
    // thread completes the rendezvous (including a dying rank's).
    sr = comm_->state_->sync(
        comm_->clock().now(), [&ws, &cl](double max_clock) {
          // Bulk-synchronous epoch: each node's NIC moves its inter-node
          // bytes at link rate, intra-node traffic moves at memory rate;
          // the epoch lasts as long as the busiest resource.
          std::scoped_lock lk(ws.acct_mu);
          double epoch = 0.0;
          for (std::size_t n = 0; n < ws.node_inter_sent.size(); ++n) {
            const double out = static_cast<double>(ws.node_inter_sent[n]) /
                               cl.net_bandwidth_bps;
            const double in = static_cast<double>(ws.node_inter_recv[n]) /
                              cl.net_bandwidth_bps;
            const double mem =
                static_cast<double>(ws.node_intra[n]) / cl.mem_bandwidth_bps;
            epoch = std::max({epoch, out, in, mem});
          }
          const double start = std::max(max_clock, ws.last_put_issue);
          std::fill(ws.node_inter_sent.begin(), ws.node_inter_sent.end(), 0);
          std::fill(ws.node_inter_recv.begin(), ws.node_inter_recv.end(), 0);
          std::fill(ws.node_intra.begin(), ws.node_intra.end(), 0);
          // Publish this epoch's per-rank deliveries and reset the
          // open-epoch tally.  All ranks are still blocked in sync() here,
          // so nobody can issue a next-epoch put before the swap, and every
          // rank reads its epoch slot before it can reach the next fence.
          ws.rank_recv.swap(ws.rank_recv_epoch);
          std::fill(ws.rank_recv.begin(), ws.rank_recv.end(), 0);
          ws.last_put_issue = 0.0;
          return start + epoch + cl.net_latency_s;
        });
  } catch (const RankDeadError&) {
    comm_->fail_pending_ = true;
    throw;
  }
  comm_->clock().at_least(sr.release);
  comm_->epoch_bytes_recv_ =
      ws.rank_recv_epoch[static_cast<std::size_t>(comm_->world_rank())];
  if (auto* t = comm_->obs_) {
    ++t->comm.window_epochs;
    t->event(obs::EventKind::kSyncEnd, comm_->clock().now(), "fence",
             comm_->epoch_bytes_put_, comm_->epoch_bytes_recv_, gen);
    t->event(obs::EventKind::kFence, comm_->clock().now(), "fence",
             comm_->epoch_bytes_put_, comm_->epoch_bytes_recv_);
  }
  comm_->epoch_bytes_put_ = 0;
  if (auto* ck = comm_->check_) ck->on_fence(comm_->rank_, id_, flags);
  comm_->check_collective_done();
  if (sr.deaths > comm_->known_deaths_) {
    // Same uniform-throw contract as barrier(): the epoch completed (the
    // dead rank's puts were issued before it died or not at all — either
    // way identically on every survivor), but the world shrank.
    comm_->fail_pending_ = true;
    throw RankDeadError{};
  }
}

void Window::release() {
  if (!comm_) return;
  // MPI_Win_free is collective — but only when the world is healthy and
  // this is a normal (non-unwinding) release.  A dying rank, a rank
  // holding a pending failure, or a rank whose world was revoked must not
  // re-enter a rendezvous from a destructor; a death detected *by* this
  // barrier is re-armed via fail_pending_ and resurfaces at the next
  // explicit collective, so it is never lost to the catch below.
  try {
    if (!comm_->state_->aborted().load() && !comm_->fail_pending_ &&
        !comm_->state_->revoked() && std::uncaught_exceptions() == 0) {
      comm_->barrier();
    }
  } catch (...) {
    // Release runs from destructors during unwinding; never propagate.
  }
  try {
    // Puts of a still-open epoch count toward the fence the other ranks
    // complete without this one — also when this rank is unwinding from
    // its own death, which is published only after its stack is gone.
    fold_epoch();
    // Always record this rank's release so the runtime can reclaim the
    // window once every rank has freed it or died.
    if (auto* ck = comm_->check_) ck->on_win_free(comm_->rank_, id_);
    comm_->state_->window_free(comm_->world_rank(), id_);
  } catch (...) {
  }
  comm_ = nullptr;
  id_ = -1;
  ws_ = nullptr;
}

}  // namespace collrep::simmpi
