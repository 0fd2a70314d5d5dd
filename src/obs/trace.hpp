// Per-rank bounded event ring, timestamped with the *simulated* clock.
//
// Because every timestamp comes from sim::SimClock (deterministic across
// runs and independent of host load), a trace of the same program is
// bit-reproducible.  Events carry a static-lifetime name and two
// kind-specific integer arguments; Telemetry::trace_json() renders all
// ranks as one Chrome trace-event file (rank -> tid, Runtime::run()
// incarnation -> pid) loadable in Perfetto / chrome://tracing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace collrep::obs {

enum class EventKind : std::uint8_t {
  kPhaseBegin = 0,   // duration begin ("B"): dump pipeline phase
  kPhaseEnd,         // duration end ("E")
  kCollectiveBegin,  // duration begin: bcast/reduce/allgather/...
  kCollectiveEnd,
  kPut,          // instant: one-sided put (a = modeled bytes, b = target)
  kFence,        // instant: window epoch completion (a = epoch put bytes)
  kStoreCommit,  // instant: chunks committed to a device (a = bytes)
  kFault,        // instant: injected fault fired (a = target store/rank)
  // Flow events: the cross-rank happens-before edges tools/collprof
  // stitches the per-rank rings together with (DESIGN.md §11).
  kSend,       // instant: p2p message entered flight (a = bytes, b = dst,
               //          c = flow id, matched by the peer's kRecv)
  kRecv,       // instant: p2p message delivered (a = bytes, b = src,
               //          c = flow id of the matching kSend)
  kSyncBegin,  // duration begin: clock-aligning rendezvous entry
               //          (barrier / window fence; c = sync generation)
  kSyncEnd,    // duration end: rendezvous release (c = sync generation)
};

[[nodiscard]] constexpr const char* phase_of(EventKind k) noexcept {
  switch (k) {
    case EventKind::kPhaseBegin:
    case EventKind::kCollectiveBegin:
    case EventKind::kSyncBegin:
      return "B";
    case EventKind::kPhaseEnd:
    case EventKind::kCollectiveEnd:
    case EventKind::kSyncEnd:
      return "E";
    case EventKind::kPut:
    case EventKind::kFence:
    case EventKind::kStoreCommit:
    case EventKind::kFault:
    case EventKind::kSend:
    case EventKind::kRecv:
      return "i";
  }
  return "i";
}

[[nodiscard]] constexpr const char* category_of(EventKind k) noexcept {
  switch (k) {
    case EventKind::kPhaseBegin:
    case EventKind::kPhaseEnd:
      return "phase";
    case EventKind::kCollectiveBegin:
    case EventKind::kCollectiveEnd:
      return "collective";
    case EventKind::kPut:
    case EventKind::kFence:
      return "window";
    case EventKind::kStoreCommit:
      return "storage";
    case EventKind::kFault:
      return "fault";
    case EventKind::kSend:
    case EventKind::kRecv:
      return "comm";
    case EventKind::kSyncBegin:
    case EventKind::kSyncEnd:
      return "sync";
  }
  return "misc";
}

struct TraceEvent {
  EventKind kind = EventKind::kPut;
  std::uint32_t run = 0;   // Runtime::run() incarnation (exported as pid)
  double ts = 0.0;         // simulated seconds
  const char* name = "";   // must have static storage duration
  std::uint64_t a = 0;     // kind-specific (typically bytes)
  std::uint64_t b = 0;     // kind-specific (typically a peer rank)
  std::uint64_t c = 0;     // causal id (flow id / sync generation)
};

// Fixed-capacity ring; overflow drops the *oldest* events so the tail of
// the run (usually the interesting part of a dump) is always retained.
class TraceRecorder {
 public:
  explicit TraceRecorder(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {
    ring_.reserve(capacity_ < 1024 ? capacity_ : 1024);
  }

  static constexpr std::size_t kDefaultCapacity = 1 << 14;

  void record(const TraceEvent& ev) {
    if (ring_.size() < capacity_) {
      ring_.push_back(ev);
      return;
    }
    ring_[head_] = ev;
    if (++head_ == capacity_) head_ = 0;
    ++dropped_;
  }

  [[nodiscard]] std::size_t size() const noexcept { return ring_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  // Events in recording (chronological per rank) order.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const {
    std::vector<TraceEvent> out;
    out.reserve(ring_.size());
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(head_ + i) % ring_.size()]);
    }
    return out;
  }

  void clear() {
    ring_.clear();
    head_ = 0;
    dropped_ = 0;
  }

 private:
  std::size_t capacity_;
  std::size_t head_ = 0;  // oldest element once the ring is full
  std::uint64_t dropped_ = 0;
  std::vector<TraceEvent> ring_;
};

}  // namespace collrep::obs
