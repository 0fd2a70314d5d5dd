// Application workloads: HPCCG solver correctness and redundancy profile,
// MiniCM stability/determinism, and the synthetic generator's knobs.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <unordered_set>
#include <vector>

#include "apps/hpccg.hpp"
#include "apps/minicm.hpp"
#include "apps/rng.hpp"
#include "apps/synth.hpp"
#include "core/collrep.hpp"
#include "ftrt/tracked_arena.hpp"

namespace {

using namespace collrep;

// -- HPCCG ---------------------------------------------------------------------

TEST(Hpccg, CgResidualDecreasesAndConverges) {
  simmpi::Runtime rt(2);
  rt.run([&](simmpi::Comm& comm) {
    ftrt::TrackedArena arena(4096);
    apps::HpccgConfig cfg;
    cfg.nx = cfg.ny = cfg.nz = 8;
    apps::HpccgSolver solver(comm, arena, cfg);
    const double r10 = solver.iterate(10);
    const double r40 = solver.iterate(30);
    EXPECT_LT(r40, r10);
    EXPECT_LT(r40, 1e-6);  // diagonally dominant system converges fast
    EXPECT_EQ(solver.iterations_done(), 40);
  });
}

TEST(Hpccg, MatrixShapeMatchesStencil) {
  simmpi::Runtime rt(1);
  rt.run([&](simmpi::Comm& comm) {
    ftrt::TrackedArena arena(4096);
    apps::HpccgConfig cfg;
    cfg.nx = cfg.ny = cfg.nz = 4;
    apps::HpccgSolver solver(comm, arena, cfg);
    EXPECT_EQ(solver.nrows(), 64u);
    // Interior rows have 27 entries; a 4^3 block has a single interior
    // 2^3 core.  Corner rows have 8.  Total = sum over rows of
    // (1+min(ix,1)+...) — just bound it.
    EXPECT_GT(solver.nnz(), 64u * 8);
    EXPECT_LT(solver.nnz(), 64u * 27);
  });
}

TEST(Hpccg, ChargesSimulatedComputeTime) {
  simmpi::Runtime rt(1);
  rt.run([&](simmpi::Comm& comm) {
    ftrt::TrackedArena arena(4096);
    apps::HpccgConfig cfg;
    cfg.nx = cfg.ny = cfg.nz = 8;
    apps::HpccgSolver solver(comm, arena, cfg);
    const double before = comm.clock().now();
    (void)solver.iterate(5);
    EXPECT_GT(comm.clock().now(), before);
  });
}

TEST(Hpccg, WeakScalingProducesCrossRankMatrixDuplicates) {
  // The paper's key observation: in weak scaling, matrix pages coincide
  // across ranks while vector pages do not.  Verify with the pipeline.
  constexpr int kRanks = 4;
  simmpi::Runtime rt(kRanks);
  std::vector<chunk::ChunkStore> stores(kRanks);
  std::vector<core::DumpStats> stats(kRanks);
  rt.run([&](simmpi::Comm& comm) {
    ftrt::TrackedArena arena(4096);
    apps::HpccgConfig cfg;
    cfg.nx = cfg.ny = cfg.nz = 8;
    apps::HpccgSolver solver(comm, arena, cfg);
    (void)solver.iterate(5);
    core::DumpConfig dump_cfg;
    dump_cfg.chunk_bytes = 512;  // scaled page size (see bench/bench_util.hpp)
    core::Dumper dumper(comm, stores[static_cast<std::size_t>(comm.rank())],
                        dump_cfg);
    stats[static_cast<std::size_t>(comm.rank())] =
        dumper.dump_output(arena.snapshot(), 3);
  });
  std::uint64_t total = 0;
  std::uint64_t local_unique = 0;
  std::uint64_t global_unique = 0;
  for (const auto& s : stats) {
    total += s.dataset_bytes;
    local_unique += s.local_unique_bytes;
    global_unique += s.owned_unique_bytes;
  }
  // Cross-rank dedup must find substantially more than local dedup alone
  // (the matrix arrays coincide across the interior ranks).
  EXPECT_LT(global_unique, local_unique / 2);
  EXPECT_LT(local_unique, total);  // interior-row pattern repeats locally
}

TEST(Hpccg, DeterministicAcrossRuns) {
  const auto run_once = [] {
    simmpi::Runtime rt(2);
    double residual = 0.0;
    rt.run([&](simmpi::Comm& comm) {
      ftrt::TrackedArena arena(4096);
      apps::HpccgConfig cfg;
      cfg.nx = cfg.ny = cfg.nz = 6;
      apps::HpccgSolver solver(comm, arena, cfg);
      const double r = solver.iterate(8);
      if (comm.rank() == 0) residual = r;
    });
    return residual;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Hpccg, RejectsDegenerateDomain) {
  simmpi::Runtime rt(1);
  rt.run([&](simmpi::Comm& comm) {
    ftrt::TrackedArena arena(4096);
    apps::HpccgConfig cfg;
    cfg.nx = 1;
    EXPECT_THROW(apps::HpccgSolver(comm, arena, cfg), std::invalid_argument);
  });
}

// -- MiniCM --------------------------------------------------------------------

TEST(MiniCm, StableOverManySteps) {
  simmpi::Runtime rt(2);
  rt.run([&](simmpi::Comm& comm) {
    ftrt::TrackedArena arena(4096);
    apps::MiniCmConfig cfg;
    cfg.nx = cfg.ny = 16;
    cfg.nz = 6;
    apps::MiniCmModel model(comm, arena, cfg);
    const double wind = model.step(70);
    EXPECT_GT(wind, 0.0);
    EXPECT_LT(wind, 200.0);  // no blow-up
    EXPECT_TRUE(std::isfinite(model.checksum()));
    EXPECT_EQ(model.steps_done(), 70);
  });
}

TEST(MiniCm, DeterministicChecksum) {
  const auto run_once = [] {
    simmpi::Runtime rt(2);
    double sum = 0.0;
    rt.run([&](simmpi::Comm& comm) {
      ftrt::TrackedArena arena(4096);
      apps::MiniCmConfig cfg;
      cfg.nx = cfg.ny = 12;
      cfg.nz = 4;
      apps::MiniCmModel model(comm, arena, cfg);
      (void)model.step(15);
      if (comm.rank() == 0) sum = model.checksum();
    });
    return sum;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(MiniCm, BaseStateIsCrossRankDuplicate) {
  constexpr int kRanks = 4;
  simmpi::Runtime rt(kRanks);
  std::vector<chunk::ChunkStore> stores(kRanks);
  std::vector<core::DumpStats> stats(kRanks);
  rt.run([&](simmpi::Comm& comm) {
    ftrt::TrackedArena arena(4096);
    apps::MiniCmConfig cfg;
    cfg.nx = cfg.ny = 24;
    cfg.nz = 8;
    apps::MiniCmModel model(comm, arena, cfg);
    (void)model.step(10);
    core::DumpConfig dump_cfg;
    dump_cfg.chunk_bytes = 4096;
    core::Dumper dumper(comm, stores[static_cast<std::size_t>(comm.rank())],
                        dump_cfg);
    stats[static_cast<std::size_t>(comm.rank())] =
        dumper.dump_output(arena.snapshot(), 3);
  });
  std::uint64_t local_unique = 0;
  std::uint64_t global_unique = 0;
  for (const auto& s : stats) {
    local_unique += s.local_unique_bytes;
    global_unique += s.owned_unique_bytes;
  }
  // Base state + coefficient tables + zero scratch dedupe across ranks.
  EXPECT_LT(global_unique, 3 * local_unique / 4);
}

TEST(MiniCm, PrognosticFieldsDivergeAcrossRanks) {
  simmpi::Runtime rt(2);
  std::vector<double> sums(2);
  rt.run([&](simmpi::Comm& comm) {
    ftrt::TrackedArena arena(4096);
    apps::MiniCmConfig cfg;
    cfg.nx = cfg.ny = 12;
    cfg.nz = 4;
    apps::MiniCmModel model(comm, arena, cfg);
    (void)model.step(5);
    sums[static_cast<std::size_t>(comm.rank())] = model.checksum();
  });
  EXPECT_NE(sums[0], sums[1]);
}

// -- Synthetic generator ---------------------------------------------------------

double measured_local_dup(const std::vector<std::uint8_t>& data,
                          std::size_t chunk_bytes) {
  std::unordered_set<std::uint64_t> seen;
  const std::size_t chunks = data.size() / chunk_bytes;
  for (std::size_t c = 0; c < chunks; ++c) {
    seen.insert(hash::hasher_for(hash::HashKind::kXx64)
                    .fingerprint({data.data() + c * chunk_bytes, chunk_bytes})
                    .prefix64());
  }
  return 1.0 - static_cast<double>(seen.size()) / static_cast<double>(chunks);
}

// fill stores whole words; its bytes must be the byte-at-a-time stream:
// each draw's bytes least significant first, the tail cut from one more
// draw.
TEST(SplitMix64, FillMatchesByteLoop) {
  const auto byte_loop = [](std::uint64_t seed, std::size_t len) {
    apps::SplitMix64 rng(seed);
    std::vector<std::uint8_t> out(len);
    std::size_t i = 0;
    while (i < len) {
      const std::uint64_t v = rng.next();
      for (int b = 0; b < 8 && i < len; ++b) {
        out[i++] = static_cast<std::uint8_t>(v >> (8 * b));
      }
    }
    return out;
  };
  std::vector<std::size_t> lengths{4096};
  for (std::size_t len = 0; len <= 17; ++len) lengths.push_back(len);
  for (const std::uint64_t seed : {0ull, 1ull, 0xDEADBEEFull}) {
    for (const std::size_t len : lengths) {
      apps::SplitMix64 rng(seed);
      std::vector<std::uint8_t> out(len);
      rng.fill(out);
      EXPECT_EQ(out, byte_loop(seed, len)) << "seed " << seed << " len " << len;
      // Both consumed the same draws.
      apps::SplitMix64 ref(seed);
      for (std::size_t d = 0; d < (len + 7) / 8; ++d) (void)ref.next();
      EXPECT_EQ(rng.next(), ref.next()) << "seed " << seed << " len " << len;
    }
  }
}

TEST(Synth, Deterministic) {
  apps::SynthSpec spec;
  spec.chunks = 64;
  spec.chunk_bytes = 512;
  EXPECT_EQ(apps::synth_dataset(3, 8, spec), apps::synth_dataset(3, 8, spec));
  EXPECT_NE(apps::synth_dataset(3, 8, spec), apps::synth_dataset(4, 8, spec));
}

TEST(Synth, LocalDupKnob) {
  apps::SynthSpec spec;
  spec.chunks = 512;
  spec.chunk_bytes = 256;
  spec.global_shared = 0.0;
  spec.local_dup = 0.5;
  const auto data = apps::synth_dataset(0, 4, spec);
  const double dup = measured_local_dup(data, spec.chunk_bytes);
  EXPECT_NEAR(dup, 0.5, 0.12);

  spec.local_dup = 0.0;
  const auto unique_data = apps::synth_dataset(0, 4, spec);
  EXPECT_LT(measured_local_dup(unique_data, spec.chunk_bytes), 0.02);
}

TEST(Synth, GlobalSharedKnobCreatesCrossRankDuplicates) {
  apps::SynthSpec spec;
  spec.chunks = 256;
  spec.chunk_bytes = 256;
  spec.local_dup = 0.0;
  spec.global_shared = 1.0;
  spec.global_pool = 64;  // small pool: heavy cross-rank overlap
  const auto a = apps::synth_dataset(0, 4, spec);
  const auto b = apps::synth_dataset(1, 4, spec);

  std::unordered_set<std::string> chunks_a;
  for (std::size_t c = 0; c < spec.chunks; ++c) {
    chunks_a.emplace(reinterpret_cast<const char*>(a.data()) +
                         c * spec.chunk_bytes,
                     spec.chunk_bytes);
  }
  std::size_t shared = 0;
  for (std::size_t c = 0; c < spec.chunks; ++c) {
    shared += chunks_a.contains(
        std::string(reinterpret_cast<const char*>(b.data()) +
                        c * spec.chunk_bytes,
                    spec.chunk_bytes));
  }
  EXPECT_GT(shared, spec.chunks / 2);
}

TEST(Synth, HeavyRanksCarryMoreChunks) {
  apps::SynthSpec spec;
  spec.chunks = 100;
  spec.heavy_rank_fraction = 0.25;
  spec.heavy_multiplier = 3.0;
  EXPECT_EQ(apps::synth_chunk_count(0, 8, spec), 300u);
  EXPECT_EQ(apps::synth_chunk_count(1, 8, spec), 300u);
  EXPECT_EQ(apps::synth_chunk_count(2, 8, spec), 100u);
  const auto heavy = apps::synth_dataset(0, 8, spec);
  const auto light = apps::synth_dataset(2, 8, spec);
  EXPECT_EQ(heavy.size(), 3 * light.size());
}

TEST(Synth, InvalidSpecRejected) {
  apps::SynthSpec spec;
  spec.chunk_bytes = 0;
  EXPECT_THROW((void)apps::synth_dataset(0, 2, spec), std::invalid_argument);
}

}  // namespace
