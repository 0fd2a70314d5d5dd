// Micro-benchmarks (google-benchmark) for the core primitives: the
// dispatched data-plane kernels (GF(256) multiply-accumulate, CRC-32C,
// SHA-1 compression one stream and 16 lanes at a time, CDC chunking), the
// k-way HMERGE, RANK_SHUFFLE, offset calculation, chunking + local dedup,
// and the serialization archive —
// the per-call costs that the simtime model's merge_entry_cost_s /
// chunk_overhead_s constants approximate.
//
// Every benchmark reports throughput (bytes_per_second or
// items_per_second); the kernel benches register one entry per *variant*
// so scripts/bench_kernels.sh can compute scalar-vs-SIMD speedups from
// the JSON output.  Run with --benchmark_repetitions=N for median-of-N
// (the script does); each bench declares an explicit warm-up window.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "apps/rng.hpp"
#include "chunk/cdc.hpp"
#include "chunk/dataset.hpp"
#include "core/fingerprint_set.hpp"
#include "core/local_dedup.hpp"
#include "core/planner.hpp"
#include "hash/hasher.hpp"
#include "kernels/kernels.hpp"
#include "simmpi/archive.hpp"

namespace {

using namespace collrep;

constexpr double kWarmupSeconds = 0.05;

std::vector<std::uint8_t> random_buffer(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> buf(n);
  apps::SplitMix64 rng(seed);
  rng.fill(buf);
  return buf;
}

// -- dispatched kernels, one benchmark per variant ----------------------------

constexpr std::size_t kKernelBytes = 64 * 1024;

void BM_GfMulAdd(benchmark::State& state, kernels::GfMulAddFn fn) {
  const auto in = random_buffer(kKernelBytes, 17);
  auto out = random_buffer(kKernelBytes, 23);
  for (auto _ : state) {
    fn(out.data(), in.data(), kKernelBytes, 0x57);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kKernelBytes));
}

void BM_Crc32c(benchmark::State& state, kernels::Crc32cFn fn) {
  const auto buf = random_buffer(kKernelBytes, 31);
  std::uint32_t crc = ~0u;
  for (auto _ : state) {
    crc = fn(crc, buf.data(), kKernelBytes);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kKernelBytes));
}

void BM_Sha1Blocks(benchmark::State& state, kernels::Sha1BlocksFn fn) {
  const auto buf = random_buffer(kKernelBytes, 41);
  std::uint32_t digest_state[5] = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu,
                                   0x10325476u, 0xC3D2E1F0u};
  for (auto _ : state) {
    fn(digest_state, buf.data(), kKernelBytes / 64);
    benchmark::DoNotOptimize(digest_state);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kKernelBytes));
}

// The same 64 KiB as sha1_blocks, as 16 lanes of one 4 KiB page each (the
// paper's chunk size, the shape local dedup feeds the kernel).
void BM_Sha1x16(benchmark::State& state, kernels::Sha1x16Fn fn) {
  const auto buf = random_buffer(kKernelBytes, 43);
  constexpr std::size_t kLaneBytes = kKernelBytes / kernels::kSha1Lanes;
  const std::uint8_t* lanes[kernels::kSha1Lanes];
  for (std::size_t l = 0; l < kernels::kSha1Lanes; ++l) {
    lanes[l] = buf.data() + l * kLaneBytes;
  }
  std::uint32_t digest_state[5][kernels::kSha1Lanes] = {};
  for (auto _ : state) {
    fn(digest_state, lanes, kLaneBytes / 64);
    benchmark::DoNotOptimize(digest_state);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kKernelBytes));
}

void BM_CdcChunking(benchmark::State& state, bool skip_ahead) {
  const auto buf = random_buffer(4 * 1024 * 1024, 53);
  chunk::Dataset ds;
  ds.add_segment(buf);
  chunk::CdcParams params;
  params.skip_ahead = skip_ahead;
  for (auto _ : state) {
    benchmark::DoNotOptimize(chunk::content_defined_refs(ds, params));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(buf.size()));
}

void register_kernel_benches() {
  for (const auto& v : kernels::gf_variants()) {
    if (!v.available) continue;
    benchmark::RegisterBenchmark(("gf_mul_add/" + std::string(v.name)).c_str(),
                                 BM_GfMulAdd, v.mul_add)
        ->MinWarmUpTime(kWarmupSeconds);
  }
  for (const auto& v : kernels::crc32c_variants()) {
    if (!v.available) continue;
    benchmark::RegisterBenchmark(("crc32c/" + std::string(v.name)).c_str(),
                                 BM_Crc32c, v.fn)
        ->MinWarmUpTime(kWarmupSeconds);
  }
  for (const auto& v : kernels::sha1_variants()) {
    if (!v.available) continue;
    benchmark::RegisterBenchmark(("sha1_blocks/" + std::string(v.name)).c_str(),
                                 BM_Sha1Blocks, v.fn)
        ->MinWarmUpTime(kWarmupSeconds);
  }
  for (const auto& v : kernels::sha1_x16_variants()) {
    if (!v.available) continue;
    benchmark::RegisterBenchmark(("sha1_x16/" + std::string(v.name)).c_str(),
                                 BM_Sha1x16, v.fn)
        ->MinWarmUpTime(kWarmupSeconds);
  }
  benchmark::RegisterBenchmark("cdc_chunking/reference", BM_CdcChunking, false)
      ->MinWarmUpTime(kWarmupSeconds);
  benchmark::RegisterBenchmark("cdc_chunking/skip_ahead", BM_CdcChunking, true)
      ->MinWarmUpTime(kWarmupSeconds);
}

// -- collective-dedup primitives ----------------------------------------------

core::BoundedFpSet make_set(int entries, int rank, int nranks, int k) {
  // Cap above the entry count so the F bound never truncates the bench
  // working set.
  const auto f_cap = std::max(1u << 17, static_cast<unsigned>(2 * entries));
  core::BoundedFpSet s(f_cap, k, nranks);
  apps::SplitMix64 rng(static_cast<std::uint64_t>(rank) * 7919 + 13);
  for (int i = 0; i < entries; ++i) {
    s.add_local(hash::Fingerprint::from_u64(rng.next()), rank);
  }
  s.enforce_f();
  return s;
}

// K-way HMERGE at a reduction-tree node: one accumulated set absorbing
// several children in a single multi-way pass (fan-in 4, the binomial
// tree's widest interior node at paper scale).
void BM_HMergeKway(benchmark::State& state) {
  const int entries = static_cast<int>(state.range(0));
  constexpr int kFanIn = 4;
  const auto proto = make_set(entries, 0, kFanIn + 1, 3);
  std::vector<core::BoundedFpSet> proto_children;
  for (int c = 0; c < kFanIn; ++c) {
    proto_children.push_back(make_set(entries, c + 1, kFanIn + 1, 3));
  }
  for (auto _ : state) {
    state.PauseTiming();
    auto acc = proto;
    auto children = proto_children;
    state.ResumeTiming();
    benchmark::DoNotOptimize(acc.merge_many(std::move(children)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          (kFanIn + 1) * entries);
}
BENCHMARK(BM_HMergeKway)
    ->Arg(4096)
    ->Arg(65536)
    ->MinWarmUpTime(kWarmupSeconds);

void BM_RankShuffle(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  core::SendMatrix m(n, 4);
  apps::SplitMix64 rng(7);
  for (int r = 0; r < n; ++r) {
    for (int p = 1; p < 4; ++p) m.at(r, p) = rng.next() % 1000;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::rank_shuffle(m, 4));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_RankShuffle)
    ->Arg(64)
    ->Arg(408)
    ->Arg(4096)
    ->MinWarmUpTime(kWarmupSeconds);

void BM_OffsetCalc(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  constexpr int kK = 4;
  core::SendMatrix m(n, kK);
  apps::SplitMix64 rng(11);
  for (int r = 0; r < n; ++r) {
    for (int p = 1; p < kK; ++p) m.at(r, p) = rng.next() % 1000;
  }
  const auto shuffle = core::rank_shuffle(m, kK);
  for (auto _ : state) {
    std::uint64_t sum = 0;
    for (int pos = 0; pos < n; ++pos) {
      for (int p = 1; p < kK; ++p) {
        sum += core::put_offset_chunks(m, shuffle, pos, p);
      }
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          (kK - 1));
}
BENCHMARK(BM_OffsetCalc)->Arg(408)->MinWarmUpTime(kWarmupSeconds);

void BM_LocalDedup(benchmark::State& state) {
  const auto pages = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> data(pages * 4096);
  apps::SplitMix64 rng(3);
  rng.fill(data);
  // 50% duplicate pages.
  for (std::size_t p = 1; p < pages; p += 2) {
    std::copy_n(data.begin(), 4096,
                data.begin() + static_cast<std::ptrdiff_t>(p * 4096));
  }
  chunk::Dataset ds;
  ds.add_segment(data);
  const chunk::Chunker chunker(ds, 4096);
  const auto& hasher = hash::hasher_for(hash::HashKind::kSha1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::local_dedup(chunker, hasher));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_LocalDedup)->Arg(64)->Arg(512)->MinWarmUpTime(kWarmupSeconds);

void BM_FpSetSerialization(benchmark::State& state) {
  auto s = make_set(static_cast<int>(state.range(0)), 0, 8, 3);
  for (auto _ : state) {
    const auto bytes = simmpi::to_bytes(s);
    benchmark::DoNotOptimize(
        simmpi::from_bytes<core::BoundedFpSet>(bytes));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_FpSetSerialization)
    ->Arg(1024)
    ->Arg(16384)
    ->MinWarmUpTime(kWarmupSeconds);

}  // namespace

int main(int argc, char** argv) {
  register_kernel_benches();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
