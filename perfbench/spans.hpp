// In-memory host-time spans for the traced benchmark run.
//
// A span is one call across a layer boundary: a name "<module>.<function>",
// host wall start/end (steady clock), the calling thread's CPU time inside
// it, the rank (-1 for the main thread), the loop iteration, and the
// enclosing span on the same thread (for a rank thread's outermost span:
// the main-thread span open when the rank threads were started).  Spans are kept
// in per-thread-slot buffers and written out once, when the run ends.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  // static storage
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  int rank = -1;
  int iter = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t cpu_ns = 0;
  std::uint64_t count = 0;  // work units inside the span (bytes, ops, ...)
};

// Host clocks.  The steady clock is the only wall clock the benchmark
// reads; thread CPU time separates busy time from waiting.
[[nodiscard]] std::int64_t wall_ns();
[[nodiscard]] std::int64_t thread_cpu_ns();
// Process user+sys CPU seconds (all threads).
[[nodiscard]] double process_cpu_s();
[[nodiscard]] double peak_rss_mb();
// Time the hypervisor took from this machine's CPUs (the steal column of
// /proc/stat, summed over CPUs), in seconds; 0 where it is not available.
[[nodiscard]] double steal_s();

class SpanLog {
 public:
  // `nranks` rank slots plus one slot for the main thread.
  explicit SpanLog(int nranks);

  void set_enabled(bool on) noexcept { enabled_ = on; }
  // The iteration id stamped on spans opened from now on (all threads
  // read it after the barrier that follows the write).
  void set_iter(int iter) noexcept {
    iter_.store(iter, std::memory_order_relaxed);
  }

  // Only valid when no thread records.  Tab-separated dump: id parent name rank iter start end cpu count, with
  // times relative to the first span's start.
  [[nodiscard]] bool write_tsv(const std::string& path) const;

  // RAII span; a no-op (one branch) when the log is disabled or null.
  class Scope {
   public:
    Scope(SpanLog* log, const char* name, int rank);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void add_count(std::uint64_t n) noexcept { span_.count += n; }

   private:
    SpanLog* log_ = nullptr;
    Span span_;
    std::uint64_t saved_parent_ = 0;
  };

 private:
  friend class Scope;
  std::vector<std::vector<Span>> slots_;
  std::vector<std::uint64_t> next_id_;
  bool enabled_ = false;
  std::atomic<int> iter_{-1};
  // Innermost open span of the main thread; read by rank threads, which
  // the main thread starts after opening it.
  std::uint64_t main_open_ = 0;
};

}  // namespace perfbench
