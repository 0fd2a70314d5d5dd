#include "spans.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <ctime>

namespace perfbench {

namespace {

// Innermost open span of this thread (0 = none).
thread_local std::uint64_t t_open = 0;

}  // namespace

std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double steal_s() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  unsigned long long v[8] = {};
  const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                              &v[7]);
  std::fclose(f);
  const long hz = sysconf(_SC_CLK_TCK);
  return got == 8 && hz > 0 ? static_cast<double>(v[7]) / static_cast<double>(hz)
                            : 0.0;
}

SpanLog::SpanLog(int nranks)
    : slots_(static_cast<std::size_t>(nranks) + 1),
      next_id_(static_cast<std::size_t>(nranks) + 1, 0) {}

bool SpanLog::write_tsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::vector<Span> spans;
  for (const auto& slot : slots_) spans.insert(spans.end(), slot.begin(), slot.end());
  std::int64_t t0 = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (i == 0 || spans[i].start_ns < t0) t0 = spans[i].start_ns;
  }
  for (const Span& s : spans) {
    std::fprintf(f, "%llu\t%llu\t%s\t%d\t%d\t%lld\t%lld\t%lld\t%llu\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.name, s.rank,
                 s.iter, static_cast<long long>(s.start_ns - t0),
                 static_cast<long long>(s.end_ns - t0),
                 static_cast<long long>(s.cpu_ns),
                 static_cast<unsigned long long>(s.count));
  }
  return std::fclose(f) == 0;
}

SpanLog::Scope::Scope(SpanLog* log, const char* name, int rank) {
  if (log == nullptr || !log->enabled_) return;
  log_ = log;
  const auto slot = static_cast<std::size_t>(rank + 1);
  span_.name = name;
  span_.rank = rank;
  span_.iter = log->iter_.load(std::memory_order_relaxed);
  span_.id = (static_cast<std::uint64_t>(slot + 1) << 40) | ++log->next_id_[slot];
  // A rank thread's outermost span hangs under the main-thread span that
  // started the rank threads (that span stays open for the whole run).
  span_.parent = t_open != 0 ? t_open : rank >= 0 ? log->main_open_ : 0;
  saved_parent_ = t_open;
  t_open = span_.id;
  if (rank < 0) log->main_open_ = span_.id;
  span_.cpu_ns = thread_cpu_ns();
  span_.start_ns = wall_ns();
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  span_.end_ns = wall_ns();
  span_.cpu_ns = thread_cpu_ns() - span_.cpu_ns;
  t_open = saved_parent_;
  if (span_.rank < 0) log_->main_open_ = saved_parent_;
  log_->slots_[static_cast<std::size_t>(span_.rank + 1)].push_back(span_);
}

}  // namespace perfbench
