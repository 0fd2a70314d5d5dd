// Shared helpers for the CollRep test suites.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/collrep.hpp"
#include "core/group_parity.hpp"

namespace collrep::test {

// -- minimal JSON validator ---------------------------------------------------
// Recursive-descent parser that accepts exactly the JSON grammar; used to
// prove exported documents (metrics, traces, profiles) are machine-readable
// without pulling in a JSON dependency.
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view s)
      : p_(s.data()), end_(s.data() + s.size()) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return p_ == end_;
  }

 private:
  void skip_ws() {
    while (p_ < end_ &&
           (*p_ == ' ' || *p_ == '\n' || *p_ == '\t' || *p_ == '\r')) {
      ++p_;
    }
  }
  bool consume(char c) {
    skip_ws();
    if (p_ < end_ && *p_ == c) {
      ++p_;
      return true;
    }
    return false;
  }
  bool literal(std::string_view word) {
    if (static_cast<std::size_t>(end_ - p_) < word.size()) return false;
    if (std::string_view(p_, word.size()) != word) return false;
    p_ += word.size();
    return true;
  }
  bool string() {
    if (!consume('"')) return false;
    while (p_ < end_ && *p_ != '"') {
      if (*p_ == '\\') {
        ++p_;
        if (p_ == end_) return false;
      }
      ++p_;
    }
    return consume('"');
  }
  bool number() {
    const char* start = p_;
    if (p_ < end_ && *p_ == '-') ++p_;
    while (p_ < end_ && ((*p_ >= '0' && *p_ <= '9') || *p_ == '.' ||
                         *p_ == 'e' || *p_ == 'E' || *p_ == '+' ||
                         *p_ == '-')) {
      ++p_;
    }
    return p_ > start;
  }
  bool object() {  // NOLINT(misc-no-recursion)
    if (!consume('{')) return false;
    skip_ws();
    if (consume('}')) return true;
    do {
      skip_ws();
      if (!string()) return false;
      if (!consume(':')) return false;
      if (!value()) return false;
    } while (consume(','));
    return consume('}');
  }
  bool array() {  // NOLINT(misc-no-recursion)
    if (!consume('[')) return false;
    skip_ws();
    if (consume(']')) return true;
    do {
      if (!value()) return false;
    } while (consume(','));
    return consume(']');
  }
  bool value() {  // NOLINT(misc-no-recursion)
    skip_ws();
    if (p_ == end_) return false;
    switch (*p_) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  const char* p_;
  const char* end_;
};

// Runs an SPMD body over `nranks` and returns per-rank dump stats.
struct DumpRun {
  std::vector<core::DumpStats> stats;
  std::vector<chunk::ChunkStore> stores;
  std::vector<std::vector<std::uint8_t>> datasets;
};

using DataGen = std::function<std::vector<std::uint8_t>(int rank)>;

inline DumpRun run_dump(int nranks, int k, const core::DumpConfig& cfg,
                        const DataGen& gen,
                        chunk::StoreMode mode = chunk::StoreMode::kPayload,
                        simmpi::RuntimeOptions opts = {}) {
  DumpRun run;
  run.stats.resize(static_cast<std::size_t>(nranks));
  run.datasets.resize(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) run.stores.emplace_back(mode);

  simmpi::Runtime rt(nranks, opts);
  rt.run([&](simmpi::Comm& comm) {
    const int r = comm.rank();
    run.datasets[static_cast<std::size_t>(r)] = gen(r);
    chunk::Dataset ds;
    ds.add_segment(run.datasets[static_cast<std::size_t>(r)]);
    core::Dumper dumper(comm, run.stores[static_cast<std::size_t>(r)], cfg);
    run.stats[static_cast<std::size_t>(r)] = dumper.dump_output(ds, k);
  });
  return run;
}

// Runs one erasure-coded dump (core::EcDumper) over `nranks`.
struct EcRun {
  std::vector<chunk::ChunkStore> stores;
  std::vector<std::vector<std::uint8_t>> datasets;
  std::vector<core::EcDumpStats> stats;
};

inline EcRun run_ec_dump(int nranks, const core::EcConfig& cfg,
                         const DataGen& gen) {
  EcRun run;
  run.stores.resize(static_cast<std::size_t>(nranks));
  run.datasets.resize(static_cast<std::size_t>(nranks));
  run.stats.resize(static_cast<std::size_t>(nranks));
  simmpi::Runtime rt(nranks);
  rt.run([&](simmpi::Comm& comm) {
    const int r = comm.rank();
    run.datasets[static_cast<std::size_t>(r)] = gen(r);
    chunk::Dataset ds;
    ds.add_segment(run.datasets[static_cast<std::size_t>(r)]);
    core::EcDumper dumper(comm, run.stores[static_cast<std::size_t>(r)], cfg);
    run.stats[static_cast<std::size_t>(r)] = dumper.dump_output(ds);
  });
  return run;
}

inline std::vector<chunk::ChunkStore*> store_ptrs(DumpRun& run) {
  std::vector<chunk::ChunkStore*> ptrs;
  ptrs.reserve(run.stores.size());
  for (auto& s : run.stores) ptrs.push_back(&s);
  return ptrs;
}

// Counts on how many distinct (alive) stores each fingerprint that appears
// in any manifest is present; returns the minimum over fingerprints.
inline std::size_t min_replica_count(DumpRun& run) {
  std::vector<hash::Fingerprint> fps;
  for (int r = 0; r < static_cast<int>(run.stores.size()); ++r) {
    const auto* m = run.stores[static_cast<std::size_t>(r)].manifest_for(r);
    if (m == nullptr) continue;
    for (const auto& e : m->entries) fps.push_back(e.fp);
  }
  std::sort(fps.begin(), fps.end());
  fps.erase(std::unique(fps.begin(), fps.end()), fps.end());

  std::size_t min_count = static_cast<std::size_t>(-1);
  for (const auto& fp : fps) {
    std::size_t count = 0;
    for (auto& s : run.stores) {
      if (!s.failed() && s.contains(fp)) ++count;
    }
    min_count = std::min(min_count, count);
  }
  return fps.empty() ? 0 : min_count;
}

// Deterministic per-rank dataset with a controllable shared fraction:
// pages with (page % 4 != 0) are identical across ranks.
inline std::vector<std::uint8_t> mixed_pages(int rank, std::size_t pages,
                                             std::size_t page_bytes) {
  std::vector<std::uint8_t> data(pages * page_bytes);
  for (std::size_t p = 0; p < pages; ++p) {
    const bool shared = (p % 4) != 0;
    for (std::size_t i = 0; i < page_bytes; ++i) {
      data[p * page_bytes + i] = static_cast<std::uint8_t>(
          shared ? (p * 131 + i * 7) : (p * 131 + i * 7 + 10007 * (rank + 1)));
    }
  }
  return data;
}

}  // namespace collrep::test
