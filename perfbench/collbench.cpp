// collbench: closed-loop end-to-end benchmark of CollRep on both clocks.
//
// One SPMD application per run (ranks are simmpi threads) makes a library
// call, waits for it, and makes the next, as bulk-synchronous
// checkpointing does.  Host time is read only here, around public API
// calls; sim-clock results come from the library's own stats.  Every
// iteration's outputs are checked; a failed check, a throw or a restore
// mismatch counts as a failed operation.
//
//   collbench --seed <n> --seconds <s> --trace <0|1> --out <dir>
//             [workload params, see perfbench/workloads.json]
//
// --trace 0 measures the end-to-end metrics with no telemetry attached.
// --trace 1 first repeats that measurement for half the time, then runs
// the same loop with spans, a probe pass over each lower layer and the
// program's MetricsRegistry attached, and writes the spans to
// <out>/spans.tsv.  --setup_only 1 stops after the set-up, so that
// run.py can time set-ups from process start in several processes.  The
// results go to <out>/result.json; perfbench/run.py turns them into the
// reported metrics.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "apps/hpccg.hpp"
#include "apps/synth.hpp"
#include "core/collrep.hpp"
#include "core/local_dedup.hpp"
#include "core/replica_plan.hpp"
#include "fault/schedule.hpp"
#include "ftrt/tracked_arena.hpp"
#include "obs/telemetry.hpp"
#include "recover/service.hpp"
#include "spans.hpp"

namespace {

using namespace collrep;
using perfbench::SpanLog;
using Scope = perfbench::SpanLog::Scope;

// ---- parameters ---------------------------------------------------------------

// Iterations whose sim results and exact counts are reported (and compared
// bit-for-bit across runs).
constexpr int kDetIters = 3;
// Replication factor K of every workload.
constexpr int kK = 3;
// fig_wide: CG iterations between dumps, chosen by the seed in [min, max].
constexpr int kCgMin = 1;
constexpr int kCgMax = 4;
// Synthetic dataset mix: share of locally repeated chunks, and share of the
// rest drawn from the pool every rank shares.
constexpr double kLocalDup = 0.25;
constexpr double kGlobalShared = 0.5;

struct Params {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out = ".";

  std::string app = "synth";  // "hpccg" or "synth"
  int ranks = 4;
  std::size_t chunk_bytes = 4096;
  bool payload = true;  // payload stores + real payload exchange
  bool restart = false;
  // hpccg
  int hpccg_n = 12;
  // synth
  std::size_t synth_chunks = 256;
  // loop
  bool setup_only = false;  // stop after the set-up (fresh-process set-ups)
  int check_every = 1;   // full output check cadence after kDetIters
  std::string inject = "none";  // self-test fault: none|corrupt|drop-replica
};

Params parse(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      throw std::invalid_argument(std::string("unexpected argument ") + argv[i]);
    }
    kv[argv[i] + 2] = argv[i + 1];
  }
  if ((argc - 1) % 2 != 0) throw std::invalid_argument("flag without value");
  Params p;
  const auto take = [&kv](const char* key, auto& field) {
    const auto it = kv.find(key);
    if (it == kv.end()) return;
    using T = std::decay_t<decltype(field)>;
    if constexpr (std::is_same_v<T, std::string>) {
      field = it->second;
    } else if constexpr (std::is_same_v<T, bool>) {
      field = it->second != "0";
    } else if constexpr (std::is_floating_point_v<T>) {
      field = std::stod(it->second);
    } else {
      field = static_cast<T>(std::stoull(it->second));
    }
    kv.erase(it);
  };
  take("seed", p.seed);
  take("seconds", p.seconds);
  take("trace", p.trace);
  take("out", p.out);
  take("app", p.app);
  take("ranks", p.ranks);
  take("chunk_bytes", p.chunk_bytes);
  take("payload", p.payload);
  take("restart", p.restart);
  take("hpccg_n", p.hpccg_n);
  take("synth_chunks", p.synth_chunks);
  take("setup_only", p.setup_only);
  take("check_every", p.check_every);
  take("inject", p.inject);
  if (!kv.empty()) {
    throw std::invalid_argument("unknown flag --" + kv.begin()->first);
  }
  if (p.app != "hpccg" && p.app != "synth") {
    throw std::invalid_argument("--app must be hpccg or synth");
  }
  if (p.restart && (p.app != "synth" || !p.payload)) {
    throw std::invalid_argument("restart needs synth inputs in payload stores");
  }
  if (p.ranks < 2 || p.chunk_bytes == 0 || p.check_every < 1) {
    throw std::invalid_argument("parameter out of range");
  }
  if (p.inject != "none" && p.inject != "corrupt" &&
      p.inject != "drop-replica") {
    throw std::invalid_argument("--inject must be none|corrupt|drop-replica");
  }
  return p;
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = seed ^ (a * 0x9E3779B97F4A7C15ull) ^
                    (b * 0xC2B2AE3D27D4EB4Full);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

int nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(perfbench::wall_ns() - t0_ns) * 1e-9;
}

// Host wall time and process CPU time (user+sys over all threads), started
// together.
struct Stopwatch {
  std::int64_t wall_ns = perfbench::wall_ns();
  double cpu_s = perfbench::process_cpu_s();
  [[nodiscard]] double wall() const { return seconds_since(wall_ns); }
  [[nodiscard]] double cpu() const { return perfbench::process_cpu_s() - cpu_s; }
};

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// ---- results ------------------------------------------------------------------

// Sim-clock results and exact counts of one deterministic iteration.
using SimRecord = std::map<std::string, double>;

struct Results {
  std::mutex mu;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  std::vector<double> setup_wall_s;
  std::vector<double> setup_cpu_s;
  std::vector<double> input_gen_s;
  std::vector<double> dump_wall_s;
  std::vector<double> dump_cpu_s;
  std::vector<double> dump_steal_s;
  std::vector<double> iter_wall_s;
  std::vector<double> iter_cpu_s;
  std::vector<double> repair_wall_s;
  std::vector<double> restore_wall_s;
  std::vector<double> recover_wall_s;
  std::vector<double> busy_frac;
  std::vector<double> messages;
  std::vector<double> bytes;
  std::vector<SimRecord> sim;  // indexed by iteration < kDetIters
  int iterations = 0;

  // One checked operation; `ok` false counts it as failed.
  void op(bool ok, const std::string& what) {
    std::lock_guard<std::mutex> lock(mu);
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 20) failures.push_back(what);
  }
  void sim_set(int iter, const std::string& key, double v) {
    std::lock_guard<std::mutex> lock(mu);
    if (iter < 0 || iter >= static_cast<int>(sim.size())) return;
    sim[static_cast<std::size_t>(iter)][key] = v;
  }
};

// ---- per-run shared state -----------------------------------------------------

using FpList = std::vector<std::pair<hash::Fingerprint, std::uint32_t>>;

// Slots each rank writes before a barrier and rank 0 reads after it.
struct Shared {
  explicit Shared(int n)
      : stats(static_cast<std::size_t>(n)),
        fps(static_cast<std::size_t>(n)),
        ok(static_cast<std::size_t>(n), 1),
        cpu_ns(static_cast<std::size_t>(n), 0),
        messages(static_cast<std::size_t>(n), 0),
        bytes(static_cast<std::size_t>(n), 0),
        gen_s(static_cast<std::size_t>(n), 0.0) {}
  std::atomic<bool> go{true};
  std::vector<core::DumpStats> stats;
  std::vector<FpList> fps;
  std::vector<std::uint8_t> ok;
  std::vector<std::int64_t> cpu_ns;
  std::vector<std::uint64_t> messages;
  std::vector<std::uint64_t> bytes;
  std::vector<double> gen_s;
};

struct Ctx {
  const Params& p;
  Results& res;
  SpanLog* log = nullptr;          // non-null only in the traced phase
  obs::Telemetry* tel = nullptr;   // attached only in the traced phase
  double seconds = 0.0;            // measured-loop length of this phase
  Stopwatch setup_start;           // when this phase's set-up began
};

int keff_of(const Params& p) { return std::min(kK, p.ranks); }

core::DumpConfig dump_config(const Params& p, std::uint64_t epoch) {
  core::DumpConfig cfg;
  cfg.strategy = core::Strategy::kCollDedup;
  cfg.chunk_bytes = p.chunk_bytes;
  cfg.payload_exchange = p.payload;
  cfg.epoch = epoch;
  return cfg;
}

apps::SynthSpec synth_spec(const Params& p) {
  apps::SynthSpec spec;
  spec.chunk_bytes = p.chunk_bytes;
  spec.chunks = p.synth_chunks;
  spec.local_dup = kLocalDup;
  spec.global_shared = kGlobalShared;
  spec.seed = p.seed;
  return spec;
}

chunk::StoreMode store_mode(const Params& p) {
  return p.payload ? chunk::StoreMode::kPayload : chunk::StoreMode::kAccounting;
}

std::vector<chunk::ChunkStore> make_stores(const Params& p) {
  std::vector<chunk::ChunkStore> stores;
  stores.reserve(static_cast<std::size_t>(p.ranks));
  for (int r = 0; r < p.ranks; ++r) stores.emplace_back(store_mode(p));
  return stores;
}

std::vector<chunk::ChunkStore*> pointers(std::vector<chunk::ChunkStore>& s) {
  std::vector<chunk::ChunkStore*> out;
  for (auto& x : s) out.push_back(&x);
  return out;
}

// Fingerprints of a dataset's fixed-size chunks, hashed independently of
// the dump pipeline's local dedup.
FpList fingerprint_all(const chunk::Dataset& ds, std::size_t chunk_bytes) {
  const chunk::Chunker chunker(ds, chunk_bytes);
  const auto& hasher = hash::hasher_for(hash::HashKind::kSha1);
  FpList out;
  out.reserve(chunker.count());
  for (std::size_t i = 0; i < chunker.count(); ++i) {
    const auto bytes = chunker.bytes(i);
    out.emplace_back(hasher.fingerprint(bytes),
                     static_cast<std::uint32_t>(bytes.size()));
  }
  return out;
}

// ---- output checks (rank 0, outside the timed region) -------------------------

// Global roll-up identities every healthy dump must satisfy.
void check_dump(const Ctx& c, const Shared& sh, const core::GlobalDumpStats& g,
                int iter) {
  std::uint64_t sent = 0;
  std::uint64_t recv = 0;
  for (const auto& s : sh.stats) {
    sent += s.sent_bytes;
    recv += s.recv_bytes;
  }
  const int keff = keff_of(c.p);
  bool ok = true;
  std::string why;
  if (sent != recv || sent != g.total_sent_bytes) {
    ok = false;
    why = "sent_bytes " + std::to_string(sent) + " != recv_bytes " +
          std::to_string(recv);
  } else if (g.min_k_achieved != keff) {
    ok = false;
    why = "min_k_achieved " + std::to_string(g.min_k_achieved) +
          " != K " + std::to_string(keff);
  }
  c.res.op(ok, "iteration " + std::to_string(iter) + " dump: " + why);
}

// total_unique_bytes against an independent hash of the inputs, and every
// distinct input chunk held by at least K stores.
void check_content(const Ctx& c, const Shared& sh,
                   const core::GlobalDumpStats& g,
                   std::span<chunk::ChunkStore* const> stores, int iter) {
  std::unordered_map<hash::Fingerprint, std::uint32_t, hash::FingerprintHash>
      distinct;
  for (const auto& list : sh.fps) {
    for (const auto& [fp, len] : list) distinct.emplace(fp, len);
  }
  std::uint64_t unique_bytes = 0;
  for (const auto& [fp, len] : distinct) unique_bytes += len;
  c.res.op(unique_bytes == g.total_unique_bytes,
           "iteration " + std::to_string(iter) + " total_unique_bytes " +
               std::to_string(g.total_unique_bytes) + " != independent " +
               std::to_string(unique_bytes));

  std::unordered_map<hash::Fingerprint, int, hash::FingerprintHash> holders;
  for (const chunk::ChunkStore* s : stores) {
    if (s->failed()) continue;
    s->for_each_chunk(
        [&holders](const hash::Fingerprint& fp, std::uint32_t) {
          ++holders[fp];
        });
  }
  std::uint64_t short_chunks = 0;
  for (const auto& [fp, len] : distinct) {
    const auto it = holders.find(fp);
    if (it == holders.end() || it->second < keff_of(c.p)) ++short_chunks;
  }
  c.res.op(short_chunks == 0,
           "iteration " + std::to_string(iter) + ": " +
               std::to_string(short_chunks) +
               " distinct input chunks held by fewer than K stores");
}

bool check_iteration(const Params& p, int iter) {
  return iter < kDetIters || iter % p.check_every == 0;
}

void record_dump_sim(const Ctx& c, const Shared& sh,
                     const core::GlobalDumpStats& g, int iter) {
  std::uint64_t discarded = 0;
  std::uint64_t local_unique = 0;
  std::uint64_t puts = 0;
  for (const auto& s : sh.stats) {
    discarded += s.discarded_bytes;
    local_unique += s.local_unique_bytes;
    puts += s.stored_chunks;
  }
  auto& r = c.res;
  r.sim_set(iter, "dump_sim_s", g.completion_time_s);
  r.sim_set(iter, "replicated_bytes_per_rank", g.avg_sent_bytes);
  r.sim_set(iter, "max_recv_bytes", static_cast<double>(g.max_recv_bytes));
  r.sim_set(iter, "stored_bytes_per_input_byte",
            static_cast<double>(g.total_stored_bytes) /
                static_cast<double>(g.total_dataset_bytes));
  r.sim_set(iter, "total_dataset_bytes",
            static_cast<double>(g.total_dataset_bytes));
  r.sim_set(iter, "total_unique_bytes",
            static_cast<double>(g.total_unique_bytes));
  r.sim_set(iter, "core.dedup_ratio",
            static_cast<double>(g.total_dataset_bytes) /
                static_cast<double>(g.total_unique_bytes));
  r.sim_set(iter, "core.discard_ratio",
            static_cast<double>(discarded) / static_cast<double>(local_unique));
  r.sim_set(iter, "core.gview_entries",
            static_cast<double>(sh.stats[0].gview_entries));
  r.sim_set(iter, "chunk.puts_per_dump", static_cast<double>(puts));
  r.sim_set(iter, "sim.hash_s", g.max_phases.hash_s);
  r.sim_set(iter, "sim.reduction_s", g.max_phases.reduction_s);
  r.sim_set(iter, "sim.planning_s", g.max_phases.planning_s);
  r.sim_set(iter, "sim.exchange_s", g.max_phases.exchange_s);
  r.sim_set(iter, "sim.storage_s", g.max_phases.storage_s);
}

// ---- probe pass ---------------------------------------------------------------

// Calls each lower layer's public entry point on this iteration's own
// inputs, one span per call, with barriers between steps so each span is
// that step alone.  It is not a copy of dump_output: coverage_frac reports
// how much of the real dump span these calls explain.  The rank's sim
// clock is restored afterwards so the probes never shift the sim results
// of later iterations.
void probe_pass(const Ctx& c, simmpi::Comm& comm, const chunk::Dataset& ds) {
  SpanLog* log = c.log;
  const int rank = comm.world_rank();
  const int n = comm.size();
  const int keff = keff_of(c.p);
  const double saved_clock = comm.clock().now();
  const core::DumpConfig cfg = dump_config(c.p, 0);
  Scope probe(log, "bench.probe", rank);
  comm.barrier();

  const chunk::Chunker chunker(ds, c.p.chunk_bytes);
  const auto& hasher = hash::hasher_for(cfg.hash_kind);
  {
    Scope s(log, "hash.fingerprint", rank);
    std::uint8_t sink = 0;
    for (std::size_t i = 0; i < chunker.count(); ++i) {
      const auto bytes = chunker.bytes(i);
      sink ^= hasher.fingerprint(bytes).bytes()[0];
      s.add_count(bytes.size());
    }
    if (sink == 0xFF && chunker.count() == 0) std::abort();  // keep the work
  }
  comm.barrier();

  core::LocalDedupResult local;
  {
    Scope s(log, "core.local_dedup", rank);
    local = core::local_dedup(chunker, hasher);
    s.add_count(chunker.count());
  }
  comm.barrier();

  core::BoundedFpSet mine(cfg.threshold_f, keff, n);
  {
    Scope s(log, "core.BoundedFpSet.build", rank);
    for (const auto u : local.unique_chunks) {
      mine.add_local(local.chunk_fps[u], comm.rank());
    }
    (void)mine.enforce_f();
    s.add_count(local.unique_chunks.size());
  }
  comm.barrier();

  core::BoundedFpSet gview;
  {
    Scope s(log, "simmpi.reduce_kway", rank);
    gview = simmpi::reduce_kway(
        comm, std::move(mine),
        [log, rank](core::BoundedFpSet a,
                    std::vector<core::BoundedFpSet> children) {
          Scope m(log, "core.BoundedFpSet.merge_many", rank);
          const core::MergeStats ms = a.merge_many(std::move(children));
          m.add_count(ms.entries_scanned);
          return a;
        },
        0);
    if (comm.rank() == 0) (void)gview.prune_singletons();
  }
  {
    Scope s(log, "simmpi.bcast", rank);
    simmpi::bcast(comm, gview, 0);
    s.add_count(gview.size());
  }
  comm.barrier();

  core::ReplicaPlan plan;
  std::vector<int> shuffle;
  std::vector<int> position_of;
  core::SendMatrix mat(n, keff);
  {
    Scope s(log, "core.plan", rank);
    {
      Scope s2(log, "core.plan_collective", rank);
      plan = core::plan_collective(local, chunker, gview, comm.rank(), keff,
                                   nullptr);
    }
    const auto share_loads = [&]() {
      Scope s3(log, "simmpi.allgather", rank);
      const auto gathered = simmpi::allgather(comm, plan.load);
      for (int r = 0; r < n; ++r) {
        mat.set_row(r, gathered[static_cast<std::size_t>(r)]);
      }
    };
    share_loads();
    {
      Scope s4(log, "core.rank_shuffle", rank);
      shuffle = core::rank_shuffle(mat, keff);
      position_of = core::invert_shuffle(shuffle);
    }
    {
      Scope s5(log, "core.plan_collective", rank);
      const core::ShuffleContext ctx{shuffle, position_of};
      plan = core::plan_collective(local, chunker, gview, comm.rank(), keff,
                                   &ctx);
    }
    share_loads();
  }
  comm.barrier();

  // The dump's window epoch: same slots, same records.
  {
    Scope s(log, "simmpi.window_epoch", rank);
    constexpr std::size_t kHeader = hash::Fingerprint::kBytes + 4;
    const std::size_t slot_bytes =
        kHeader + (cfg.payload_exchange ? c.p.chunk_bytes : 0);
    const int my_pos = position_of[static_cast<std::size_t>(comm.rank())];
    const std::uint64_t slots =
        keff > 1 ? core::window_chunks(mat, shuffle, my_pos) : 0;
    simmpi::Window win;
    {
      Scope s2(log, "simmpi.win_create", rank);
      win = comm.win_create(static_cast<std::size_t>(slots) * slot_bytes);
    }
    {
      Scope s3(log, "simmpi.Window.put", rank);
      std::vector<std::uint64_t> next(static_cast<std::size_t>(keff), 0);
      std::vector<std::uint8_t> record(slot_bytes, 0);
      for (const auto& a : plan.assignments) {
        if (a.send_slots.empty()) continue;
        const std::size_t idx = local.unique_chunks[a.chunk];
        const auto payload = chunker.bytes(idx);
        const auto len = static_cast<std::uint32_t>(payload.size());
        std::memcpy(record.data(), local.chunk_fps[idx].bytes().data(),
                    hash::Fingerprint::kBytes);
        std::memcpy(record.data() + hash::Fingerprint::kBytes, &len, 4);
        if (cfg.payload_exchange) {
          std::memcpy(record.data() + kHeader, payload.data(), payload.size());
        }
        for (const std::uint8_t slot : a.send_slots) {
          const int target = core::partner_at(shuffle, my_pos, slot);
          const std::uint64_t off =
              core::put_offset_chunks(mat, shuffle, my_pos, slot) +
              next[slot]++;
          win.put(target, static_cast<std::size_t>(off) * slot_bytes, record,
                  kHeader + payload.size());
          s3.add_count(1);
        }
      }
    }
    {
      Scope s4(log, "simmpi.Window.fence", rank);
      win.fence(simmpi::kFenceNoSucceed);
    }
    {
      Scope s5(log, "simmpi.Window.free", rank);
      win.free();
    }
  }
  comm.barrier();

  // Store commit and read-back of this rank's unique chunks.
  chunk::ChunkStore probe_store(store_mode(c.p));
  {
    Scope s(log, "chunk.ChunkStore.put", rank);
    for (const auto u : local.unique_chunks) {
      const auto payload = chunker.bytes(u);
      if (c.p.payload) {
        (void)probe_store.put(local.chunk_fps[u], payload);
      } else {
        (void)probe_store.put_accounted(
            local.chunk_fps[u], static_cast<std::uint32_t>(payload.size()));
      }
    }
    s.add_count(local.unique_chunks.size());
  }
  if (c.p.payload) {
    Scope s(log, "chunk.ChunkStore.get", rank);
    std::uint64_t sink = 0;
    for (const auto u : local.unique_chunks) {
      const auto got = probe_store.get(local.chunk_fps[u]);
      if (got.has_value() && !got->empty()) sink += (*got)[got->size() - 1];
      s.add_count(1);
    }
    if (sink == ~0ull) std::abort();  // keep the reads
  }
  comm.barrier();

  // Collective latency at this rank count.
  {
    Scope s(log, "bench.collectives", rank);
    constexpr int reps = 8;
    {
      Scope s2(log, "simmpi.barrier", rank);
      for (int i = 0; i < reps; ++i) comm.barrier();
      s2.add_count(static_cast<std::uint64_t>(reps));
    }
    {
      Scope s2(log, "simmpi.allreduce", rank);
      std::uint64_t v = static_cast<std::uint64_t>(rank);
      for (int i = 0; i < reps; ++i) v = simmpi::allreduce_sum(comm, v) & 0xFF;
      s2.add_count(static_cast<std::uint64_t>(reps));
    }
    {
      Scope s2(log, "simmpi.allgather", rank);
      for (int i = 0; i < reps; ++i) {
        (void)simmpi::allgather(comm, static_cast<std::uint64_t>(rank));
      }
      s2.add_count(static_cast<std::uint64_t>(reps));
    }
    {
      Scope s2(log, "simmpi.bcast", rank);
      std::uint64_t v = 0;
      for (int i = 0; i < reps; ++i) {
        v = static_cast<std::uint64_t>(i);
        simmpi::bcast(comm, v, 0);
      }
      s2.add_count(static_cast<std::uint64_t>(reps));
    }
  }
  comm.barrier();
  comm.clock().reset(saved_clock);
}

// ---- dump workloads (fig_wide, ckpt_deep) --------------------------------------

// Per-rank application state: the HPCCG solver's tracked memory image, or
// a generated synthetic dataset.
struct RankApp {
  std::unique_ptr<ftrt::TrackedArena> arena;
  std::unique_ptr<apps::HpccgSolver> solver;
  std::vector<std::uint8_t> data;

  chunk::Dataset dataset() const {
    if (arena) return arena->snapshot();
    chunk::Dataset ds;
    ds.add_segment(data);
    return ds;
  }
};

RankApp make_app(const Ctx& c, simmpi::Comm& comm) {
  RankApp app;
  const int rank = comm.world_rank();
  Scope s(c.log, "apps.input_gen", rank);
  if (c.p.app == "hpccg") {
    app.arena = std::make_unique<ftrt::TrackedArena>(c.p.chunk_bytes);
    apps::HpccgConfig hcfg;
    hcfg.nx = hcfg.ny = hcfg.nz = c.p.hpccg_n;
    app.solver = std::make_unique<apps::HpccgSolver>(comm, *app.arena, hcfg);
  } else {
    app.data = apps::synth_dataset(rank, comm.size(), synth_spec(c.p));
  }
  return app;
}

void measure_dump(const Ctx& c, simmpi::Comm& comm, Shared& sh,
                  core::Dumper& dumper, const chunk::Dataset& ds,
                  core::DumpStats& out) {
  const int rank = comm.world_rank();
  obs::RankTelemetry* rt = comm.obs();
  const std::uint64_t msg0 = rt ? rt->comm.sent_messages + rt->comm.puts : 0;
  const std::uint64_t byte0 = rt ? rt->comm.sent_bytes + rt->comm.put_bytes : 0;
  comm.barrier();
  const std::int64_t cpu0 = perfbench::thread_cpu_ns();
  std::int64_t t0 = 0;
  double ru0 = 0.0;
  double steal0 = 0.0;
  if (rank == 0) {
    steal0 = perfbench::steal_s();
    ru0 = perfbench::process_cpu_s();
    t0 = perfbench::wall_ns();
  }
  {
    Scope s(c.log, "core.Dumper.dump_output", rank);
    out = dumper.dump_output(ds, kK);
  }
  if (rank == 0) {
    const double wall = seconds_since(t0);
    const double cpu = perfbench::process_cpu_s() - ru0;
    const double steal = perfbench::steal_s() - steal0;
    std::lock_guard<std::mutex> lock(c.res.mu);
    c.res.dump_wall_s.push_back(wall);
    c.res.dump_cpu_s.push_back(cpu);
    c.res.dump_steal_s.push_back(steal);
  }
  sh.cpu_ns[static_cast<std::size_t>(rank)] = perfbench::thread_cpu_ns() - cpu0;
  if (rt != nullptr) {
    sh.messages[static_cast<std::size_t>(rank)] =
        rt->comm.sent_messages + rt->comm.puts - msg0;
    sh.bytes[static_cast<std::size_t>(rank)] =
        rt->comm.sent_bytes + rt->comm.put_bytes - byte0;
  }
  sh.stats[static_cast<std::size_t>(rank)] = out;
}

// Rank 0, after the barrier that follows measure_dump: traced-run layer
// counts of that dump.
void record_dump_layers(const Ctx& c, const Shared& sh) {
  if (c.log == nullptr) return;
  double cpu = 0.0;
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  for (std::size_t r = 0; r < sh.cpu_ns.size(); ++r) {
    cpu += static_cast<double>(sh.cpu_ns[r]) * 1e-9;
    msgs += sh.messages[r];
    bytes += sh.bytes[r];
  }
  std::lock_guard<std::mutex> lock(c.res.mu);
  const double wall = c.res.dump_wall_s.back();
  c.res.busy_frac.push_back(cpu / (static_cast<double>(sh.cpu_ns.size()) * wall));
  c.res.messages.push_back(static_cast<double>(msgs));
  c.res.bytes.push_back(static_cast<double>(bytes));
}

void run_dump_workload(const Ctx& c) {
  const Params& p = c.p;
  Scope run_span(c.log, "simmpi.Runtime.run", -1);
  std::vector<chunk::ChunkStore> stores = make_stores(p);
  const auto ptrs = pointers(stores);
  Shared sh(p.ranks);
  simmpi::RuntimeOptions opts;
  opts.telemetry = c.tel;
  simmpi::Runtime rt(p.ranks, opts);
  rt.run([&](simmpi::Comm& comm) {
    const int rank = comm.rank();
    const std::int64_t g0 = perfbench::wall_ns();
    RankApp app = make_app(c, comm);
    sh.gen_s[static_cast<std::size_t>(rank)] = seconds_since(g0);
    chunk::ChunkStore& store = stores[static_cast<std::size_t>(rank)];
    core::Dumper dumper(comm, store, dump_config(p, 1));
    comm.barrier();
    if (rank == 0) {
      std::lock_guard<std::mutex> lock(c.res.mu);
      c.res.setup_wall_s.push_back(c.setup_start.wall());
      c.res.setup_cpu_s.push_back(c.setup_start.cpu());
      c.res.input_gen_s.push_back(
          *std::max_element(sh.gen_s.begin(), sh.gen_s.end()));
    }
    if (p.setup_only) return;

    const std::int64_t loop_t0 = perfbench::wall_ns();
    for (int it = 0;; ++it) {
      if (rank == 0) {
        sh.go = it < kDetIters || seconds_since(loop_t0) < c.seconds;
        if (c.log) c.log->set_iter(it);
      }
      comm.barrier();
      if (!sh.go) break;
      Scope iter_span(c.log, "bench.iteration", rank);
      if (app.solver) {
        Scope s(c.log, "apps.HpccgSolver.iterate", rank);
        const int steps =
            kCgMin + static_cast<int>(
                         mix(p.seed, static_cast<std::uint64_t>(it), 1) %
                         static_cast<std::uint64_t>(kCgMax - kCgMin + 1));
        (void)app.solver->iterate(steps);
        comm.barrier();
      }
      // The checkpoint cycle: store reset, dump, collect.
      const Stopwatch iter;
      const chunk::Dataset ds = app.dataset();
      {
        Scope s(c.log, "chunk.ChunkStore.clear", rank);
        store.clear();
      }
      core::DumpStats mine;
      measure_dump(c, comm, sh, dumper, ds, mine);
      core::GlobalDumpStats g;
      {
        Scope s(c.log, "core.Dumper.collect", rank);
        g = core::Dumper::collect(comm, mine);
      }
      comm.barrier();
      if (rank == 0) {
        std::lock_guard<std::mutex> lock(c.res.mu);
        c.res.iter_wall_s.push_back(iter.wall());
        c.res.iter_cpu_s.push_back(iter.cpu());
      }
      const bool full = check_iteration(p, it);
      {
        Scope s(c.log, "bench.check", rank);
        if (full) {
          sh.fps[static_cast<std::size_t>(rank)] =
              fingerprint_all(ds, p.chunk_bytes);
        }
        if (p.inject == "drop-replica" && rank == 0) store.wipe();
        comm.barrier();
        if (rank == 0) {
          record_dump_layers(c, sh);
          check_dump(c, sh, g, it);
          if (full) check_content(c, sh, g, ptrs, it);
          if (it < kDetIters) record_dump_sim(c, sh, g, it);
        }
      }
      if (c.log != nullptr) probe_pass(c, comm, ds);
      if (rank == 0) c.res.iterations = it + 1;
    }
  });
}

// ---- restart workload -------------------------------------------------------------

std::vector<std::uint8_t> concat(const std::vector<std::vector<std::uint8_t>>& segs) {
  std::vector<std::uint8_t> out;
  for (const auto& s : segs) out.insert(out.end(), s.begin(), s.end());
  return out;
}

void run_restart_workload(const Ctx& c) {
  const Params& p = c.p;
  const int n = p.ranks;
  const int keff = keff_of(p);
  // The set-up: inputs, stores, the runtime the cycles run on and the
  // recovery service over its stores.
  std::vector<std::vector<std::uint8_t>> inputs(static_cast<std::size_t>(n));
  std::vector<chunk::ChunkStore> stores = make_stores(p);
  const auto ptrs = pointers(stores);
  Shared sh(n);
  simmpi::RuntimeOptions main_opts;
  main_opts.telemetry = c.tel;
  simmpi::Runtime rt(n, main_opts);
  recover::RecoveryConfig rcfg;
  rcfg.replication = kK;
  recover::RecoveryService svc(ptrs, rcfg);
  {
    Scope gen_span(c.log, "simmpi.Runtime.run", -1);
    rt.run([&](simmpi::Comm& comm) {
      const int rank = comm.rank();
      const std::int64_t g0 = perfbench::wall_ns();
      {
        Scope s(c.log, "apps.input_gen", rank);
        inputs[static_cast<std::size_t>(rank)] =
            apps::synth_dataset(rank, n, synth_spec(p));
      }
      sh.gen_s[static_cast<std::size_t>(rank)] = seconds_since(g0);
      comm.barrier();
    });
  }
  c.res.setup_wall_s.push_back(c.setup_start.wall());
  c.res.setup_cpu_s.push_back(c.setup_start.cpu());
  c.res.input_gen_s.push_back(
      *std::max_element(sh.gen_s.begin(), sh.gen_s.end()));
  if (p.setup_only) return;

  for (int r = 0; r < n; ++r) {
    chunk::Dataset ds;
    ds.add_segment(inputs[static_cast<std::size_t>(r)]);
    sh.fps[static_cast<std::size_t>(r)] = fingerprint_all(ds, p.chunk_bytes);
  }

  const std::int64_t loop_t0 = perfbench::wall_ns();
  for (int it = 0; it < kDetIters || seconds_since(loop_t0) < c.seconds;
       ++it) {
    if (c.log) c.log->set_iter(it);
    Scope iter_span(c.log, "bench.iteration", -1);
    const Stopwatch iter;
    // Benchmark-only work inside the cycle: rank 0's output checks, while
    // every other rank waits.
    double checks_wall_s = 0.0;
    double checks_cpu_s = 0.0;
    const std::uint64_t epoch = 2 * static_cast<std::uint64_t>(it) + 1;
    const int wipe_victim =
        static_cast<int>(mix(p.seed, static_cast<std::uint64_t>(it), 2) %
                         static_cast<std::uint64_t>(n));
    const int kill_victim =
        static_cast<int>(mix(p.seed, static_cast<std::uint64_t>(it), 3) %
                         static_cast<std::uint64_t>(n));

    // Dump, seeded store wipe + repair, byte-exact restore.
    {
      Scope run_span(c.log, "simmpi.Runtime.run", -1);
      rt.run([&](simmpi::Comm& comm) {
        const int rank = comm.rank();
        chunk::ChunkStore& store = stores[static_cast<std::size_t>(rank)];
        store.recover_empty();  // each iteration starts from blank devices
        chunk::Dataset ds;
        ds.add_segment(inputs[static_cast<std::size_t>(rank)]);
        core::Dumper dumper(comm, store, dump_config(p, epoch));
        core::DumpStats mine;
        measure_dump(c, comm, sh, dumper, ds, mine);
        core::GlobalDumpStats g;
        {
          Scope s(c.log, "core.Dumper.collect", rank);
          g = core::Dumper::collect(comm, mine);
        }
        comm.barrier();
        if (rank == 0) {
          record_dump_layers(c, sh);
          const Stopwatch checks;
          check_dump(c, sh, g, it);
          if (check_iteration(p, it)) check_content(c, sh, g, ptrs, it);
          if (it < kDetIters) record_dump_sim(c, sh, g, it);
          checks_wall_s += checks.wall();
          checks_cpu_s += checks.cpu();
        }
        comm.barrier();  // rank 0 reads every store above
        if (rank == wipe_victim) {
          Scope s(c.log, "chunk.ChunkStore.recover_empty", rank);
          store.recover_empty();
        }
        comm.barrier();
        std::int64_t t0 = perfbench::wall_ns();
        core::RepairStats rep;
        {
          Scope s(c.log, "core.repair_replicas", rank);
          rep = core::repair_replicas(comm, ptrs, kK);
        }
        if (rank == 0) {
          std::lock_guard<std::mutex> lock(c.res.mu);
          c.res.repair_wall_s.push_back(seconds_since(t0));
        }
        comm.barrier();
        t0 = perfbench::wall_ns();
        std::pair<core::RestoreResult, core::CollectiveRestoreStats> restored;
        {
          Scope s(c.log, "core.restore_input", rank);
          restored = core::restore_input(comm, ptrs);
        }
        const double restore_wall = seconds_since(t0);
        std::vector<std::uint8_t> got = concat(restored.first.segments);
        if (p.inject == "corrupt" && rank == 0 && !got.empty()) {
          got[got.size() / 2] ^= 0x01;
        }
        sh.ok[static_cast<std::size_t>(rank)] =
            got == inputs[static_cast<std::size_t>(rank)] ? 1 : 0;
        comm.barrier();
        if (rank == 0) {
          std::lock_guard<std::mutex> lock(c.res.mu);
          c.res.restore_wall_s.push_back(restore_wall);
        }
        if (rank == 0) {
          const Stopwatch checks;
          c.res.op(rep.lost_chunks == 0 && rep.k_achieved_min_after == keff,
                   "iteration " + std::to_string(it) + " repair: " +
                       std::to_string(rep.lost_chunks) + " lost chunks");
          for (int r = 0; r < n; ++r) {
            c.res.op(sh.ok[static_cast<std::size_t>(r)] != 0,
                     "iteration " + std::to_string(it) + " restore of rank " +
                         std::to_string(r) + " is not byte-exact");
          }
          if (it < kDetIters) {
            c.res.sim_set(it, "restart.repair_sim_s", rep.total_time_s);
            c.res.sim_set(it, "core.repair_resent_bytes",
                          static_cast<double>(rep.resent_bytes));
            c.res.sim_set(it, "restore_sim_s", restored.second.total_time_s);
          }
          checks_wall_s += checks.wall();
          checks_cpu_s += checks.cpu();
        }
        if (c.log != nullptr) probe_pass(c, comm, ds);
      });
    }

    // A fresh fail-stop-contained runtime: one seeded rank death in the
    // middle of the dump's exchange, absorbed by recover_world, then a
    // follow-up scrub that must find nothing to repair.
    fault::FaultSchedule sched;
    {
      fault::FaultEvent ev;
      ev.point = "dump.exchange.mid";
      ev.rank = kill_victim;
      ev.epoch = epoch + 1;
      ev.action = fault::FaultAction::kKillRank;
      sched.add(ev);
    }
    sched.arm(ptrs);
    simmpi::RuntimeOptions fopts;
    fopts.telemetry = c.tel;
    fopts.faults = &sched;
    fopts.contain_failures = true;
    simmpi::Runtime frt(n, fopts);
    std::vector<std::uint8_t> saw_death(static_cast<std::size_t>(n), 0);
    {
      Scope run_span(c.log, "simmpi.Runtime.run", -1);
      frt.run([&](simmpi::Comm& comm) {
        const int w = comm.world_rank();
        chunk::Dataset ds;
        ds.add_segment(inputs[static_cast<std::size_t>(w)]);
        core::Dumper dumper(comm, stores[static_cast<std::size_t>(w)],
                            dump_config(p, epoch + 1));
        try {
          Scope s(c.log, "core.Dumper.dump_output.rank_death", w);
          (void)dumper.dump_output(ds, kK);
        } catch (const simmpi::RankDeadError&) {
          saw_death[static_cast<std::size_t>(w)] = 1;
        }
        const std::int64_t t0 = perfbench::wall_ns();
        recover::RecoveryStats rs;
        {
          Scope s(c.log, "recover.RecoveryService.recover_world", w);
          rs = svc.recover_world(comm);
        }
        const double recover_wall = seconds_since(t0);
        bool orphans_ok = true;
        for (const auto& od : rs.orphans) {
          bool same = od.world_rank == kill_victim;
          if (same) {
            same = concat(od.segments) ==
                   inputs[static_cast<std::size_t>(od.world_rank)];
          }
          orphans_ok = orphans_ok && same;
        }
        std::vector<chunk::ChunkStore*> dense;
        for (int r = 0; r < comm.size(); ++r) {
          dense.push_back(&stores[static_cast<std::size_t>(comm.world_of(r))]);
        }
        if (p.inject == "drop-replica" && comm.rank() == 0) {
          stores[static_cast<std::size_t>(w)].wipe();
        }
        core::RepairStats after;
        {
          Scope s(c.log, "core.repair_replicas.after_recovery", w);
          after = core::repair_replicas(comm, dense, kK);
        }
        sh.ok[static_cast<std::size_t>(w)] = orphans_ok ? 1 : 0;
        comm.barrier();
        if (comm.rank() != 0) return;
        std::uint64_t orphans_bad = 0;
        for (int r = 0; r < comm.size(); ++r) {
          orphans_bad += sh.ok[static_cast<std::size_t>(comm.world_of(r))] == 0;
        }
        const std::string tag = "iteration " + std::to_string(it) + " recovery: ";
        c.res.op(rs.deaths == 1 && rs.world_size_after == n - 1 &&
                     rs.orphan_bytes_total ==
                         inputs[static_cast<std::size_t>(kill_victim)].size() &&
                     orphans_bad == 0,
                 tag + "deaths " + std::to_string(rs.deaths) +
                     ", orphan mismatches " + std::to_string(orphans_bad));
        c.res.op(after.under_replicated_chunks == 0 && after.lost_chunks == 0,
                 tag + "follow-up repair found " +
                     std::to_string(after.under_replicated_chunks) +
                     " under-replicated chunks");
        const double sat = static_cast<double>(rs.dedup_satisfied_bytes);
        const double moved = static_cast<double>(rs.rereplicated_bytes);
        c.res.sim_set(it, "recover_sim_s", rs.total_time_s);
        c.res.sim_set(it, "recover.agreement_s", rs.agreement_time_s);
        c.res.sim_set(it, "recover.dedup_satisfied_ratio",
                      sat + moved > 0.0 ? sat / (sat + moved) : 1.0);
        c.res.sim_set(it, "recover.rereplicated_bytes", moved);
        c.res.sim_set(it, "restart.followup_repair_sim_s", after.total_time_s);
        std::lock_guard<std::mutex> lock(c.res.mu);
        c.res.recover_wall_s.push_back(recover_wall);
      });
    }
    std::uint64_t deaths_seen = 0;
    for (int w = 0; w < n; ++w) {
      if (w != kill_victim) deaths_seen += saw_death[static_cast<std::size_t>(w)];
    }
    c.res.op(deaths_seen == static_cast<std::uint64_t>(n - 1),
             "iteration " + std::to_string(it) + ": " +
                 std::to_string(deaths_seen) +
                 " survivors observed the rank death");
    c.res.iter_wall_s.push_back(iter.wall() - checks_wall_s);
    c.res.iter_cpu_s.push_back(iter.cpu() - checks_cpu_s);
    c.res.iterations = it + 1;
  }
}

// ---- phases and output -------------------------------------------------------------

void run_phase(const Ctx& c) {
  c.res.sim.assign(static_cast<std::size_t>(kDetIters), SimRecord{});
  try {
    if (c.p.restart) {
      run_restart_workload(c);
    } else {
      run_dump_workload(c);
    }
  } catch (const std::exception& e) {
    c.res.op(false, std::string("run aborted: ") + e.what());
  }
}

// Median of one sim key over the deterministic iterations.
double sim_median(const Results& r, const std::string& key) {
  std::vector<double> v;
  for (const auto& rec : r.sim) {
    const auto it = rec.find(key);
    if (it != rec.end()) v.push_back(it->second);
  }
  return median(v);
}

struct Json {
  std::string s = "{";
  bool first = true;
  void key(const std::string& k) {
    if (!first) s += ",";
    first = false;
    s += "\"" + k + "\":";
  }
  void num(const std::string& k, double v) {
    key(k);
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    s += buf;
  }
  void raw(const std::string& k, const std::string& v) {
    key(k);
    s += v;
  }
  std::string close() { return s + "}"; }
};

std::string quote(const std::string& in) {
  std::string out = "\"";
  for (const char ch : in) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out + "\"";
}

std::string numbers(const std::vector<double>& v) {
  std::string out = "[";
  char buf[40];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.17g", i ? "," : "", v[i]);
    out += buf;
  }
  return out + "]";
}

std::string sim_json(const Results& r) {
  std::string out = "[";
  for (std::size_t i = 0; i < r.sim.size(); ++i) {
    Json j;
    for (const auto& [k, v] : r.sim[i]) j.num(k, v);
    out += (i ? "," : "") + j.close();
  }
  return out + "]";
}

// Everything run.py needs from one phase: raw samples plus the summary
// values computed here.
std::string phase_json(const Params& p, Results& r) {
  Json j;
  j.num("attempted", static_cast<double>(r.attempted));
  j.num("failed", static_cast<double>(r.failed));
  std::string f = "[";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    f += (i ? "," : "") + quote(r.failures[i]);
  }
  j.raw("failures", f + "]");
  j.num("iterations", r.iterations);
  j.num("dumps", static_cast<double>(r.dump_wall_s.size()));
  j.raw("sim", sim_json(r));
  j.raw("setup_wall_s", numbers(r.setup_wall_s));
  j.raw("setup_cpu_s", numbers(r.setup_cpu_s));
  j.raw("dump_wall_s", numbers(r.dump_wall_s));
  j.raw("dump_cpu_s", numbers(r.dump_cpu_s));
  j.raw("dump_steal_s", numbers(r.dump_steal_s));
  j.raw("iter_wall_s", numbers(r.iter_wall_s));
  j.raw("iter_cpu_s", numbers(r.iter_cpu_s));
  j.raw("repair_wall_s", numbers(r.repair_wall_s));
  j.raw("restore_wall_s", numbers(r.restore_wall_s));
  j.raw("recover_wall_s", numbers(r.recover_wall_s));

  Json e;
  e.num("dump_wall_p50_s", quantile(r.dump_wall_s, 0.5));
  e.num("dump_wall_p90_s", quantile(r.dump_wall_s, 0.9));
  e.num("dump_cpu_s", median(r.dump_cpu_s));
  e.num("iter_wall_p50_s", median(r.iter_wall_s));
  e.num("iter_cpu_s", median(r.iter_cpu_s));
  double wall = 0.0;
  double steal = 0.0;
  for (std::size_t i = 0; i < r.dump_wall_s.size(); ++i) {
    wall += r.dump_wall_s[i];
    steal += r.dump_steal_s[i];
  }
  e.num("dump_steal_frac",
        wall > 0.0 ? steal / (wall * static_cast<double>(nproc())) : 0.0);
  for (const char* key : {"dump_sim_s", "replicated_bytes_per_rank",
                          "max_recv_bytes", "stored_bytes_per_input_byte"}) {
    e.num(key, sim_median(r, key));
  }
  if (p.restart) {
    e.num("repair_wall_p50_s", median(r.repair_wall_s));
    e.num("restore_wall_p50_s", median(r.restore_wall_s));
    e.num("recover_wall_p50_s", median(r.recover_wall_s));
    e.num("restore_sim_s", sim_median(r, "restore_sim_s"));
    e.num("recover_sim_s", sim_median(r, "recover_sim_s"));
  }
  e.num("peak_rss_mb", perfbench::peak_rss_mb());
  j.raw("e2e", e.close());

  Json l;
  l.num("apps.input_gen_s", median(r.input_gen_s));
  l.num("simmpi.rank_busy_frac", median(r.busy_frac));
  // Exact counts: the deterministic iterations only.
  const auto first = [&p](const std::vector<double>& v) {
    return std::vector<double>(
        v.begin(), v.begin() + std::min<std::ptrdiff_t>(
                                   kDetIters, static_cast<std::ptrdiff_t>(v.size())));
  };
  l.num("simmpi.messages_per_dump", median(first(r.messages)));
  l.num("simmpi.bytes_per_dump", median(first(r.bytes)));
  for (const char* key :
       {"core.dedup_ratio", "core.discard_ratio", "core.gview_entries",
        "chunk.puts_per_dump", "sim.hash_s", "sim.reduction_s",
        "sim.planning_s", "sim.exchange_s", "sim.storage_s",
        "core.repair_resent_bytes", "recover.agreement_s",
        "recover.dedup_satisfied_ratio"}) {
    l.num(key, sim_median(r, key));
  }
  j.raw("layers", l.close());
  return j.close();
}

double spawn_join_ms(int nranks) {
  std::vector<double> v;
  for (int i = 0; i < 9; ++i) {
    simmpi::Runtime rt(nranks);
    const std::int64_t t0 = perfbench::wall_ns();
    rt.run([](simmpi::Comm&) {});
    v.push_back(seconds_since(t0) * 1e3);
  }
  return median(v);
}

}  // namespace

int main(int argc, char** argv) {
  // The first set-up runs from process start: wall time from here, process
  // CPU from zero (it includes loading and static initialization).
  const Stopwatch process_start{perfbench::wall_ns(), 0.0};
  Params p;
  try {
    p = parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "collbench: %s\n", e.what());
    return 2;
  }

  // Untraced phase: the end-to-end measurement (the whole run at
  // --trace 0, the first half at --trace 1).
  Results untraced;
  run_phase(Ctx{p, untraced, nullptr, nullptr,
                p.trace ? p.seconds / 2 : p.seconds, process_start});

  std::string body = "{\"untraced\":" + phase_json(p, untraced);
  if (p.trace && !p.setup_only) {
    Results traced;
    SpanLog log(p.ranks);
    log.set_enabled(true);
    obs::TelemetryConfig tcfg;
    tcfg.trace_capacity = 256;  // the ring is not exported; keep it small
    obs::Telemetry tel(tcfg);
    run_phase(Ctx{p, traced, &log, &tel, p.seconds / 2, Stopwatch{}});
    log.set_enabled(false);
    const double spawn = spawn_join_ms(p.ranks);
    if (!log.write_tsv(p.out + "/spans.tsv")) {
      traced.op(false, "cannot write " + p.out + "/spans.tsv");
    }
    tel.publish_rollup();
    if (std::FILE* f = std::fopen((p.out + "/metrics.json").c_str(), "w")) {
      const std::string m = tel.metrics().to_json();
      std::fwrite(m.data(), 1, m.size(), f);
      std::fclose(f);
    }
    Json extra;
    extra.num("simmpi.spawn_join_ms", spawn);
    body += ",\"traced\":" + phase_json(p, traced) +
            ",\"traced_extra\":" + extra.close();
  }
  body += "}";
  const std::string path = p.out + "/result.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "collbench: cannot write %s\n", path.c_str());
    return 1;
  }
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  return 0;
}
