// Tests for the collcheck static analyzer (ctest label: analyze).
//
// The fixture corpus under tools/collcheck/fixtures/ seeds at least two
// true positives and one clean negative per rule family; these tests pin
// the exact rule ids and line numbers, so a rule that silently stops
// firing (a false negative) fails the suite, and a rule that starts
// firing on the clean fixtures (a false positive) fails it too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "analyzer.hpp"
#include "baseline.hpp"
#include "sarif.hpp"
#include "schedule.hpp"

namespace {

using collcheck::AnalysisResult;
using collcheck::AnalyzerOptions;
using collcheck::Finding;

// (rule, file, line) triples for exact-match assertions.
using Key = std::tuple<std::string, std::string, int>;

std::set<Key> keys(const AnalysisResult& result) {
  std::set<Key> out;
  for (const Finding& f : result.findings) {
    out.insert({f.rule, f.file, f.line});
  }
  return out;
}

AnalysisResult scan_fixture(const std::string& family) {
  AnalyzerOptions options;
  options.include_fixtures = true;
  return collcheck::analyze_paths({"tools/collcheck/fixtures/" + family},
                                  COLLCHECK_REPO_ROOT, options);
}

constexpr const char* kFx = "tools/collcheck/fixtures/";

TEST(Collcheck, DivergentCollectiveFamily) {
  const auto result = scan_fixture("divergent");
  const std::set<Key> expected = {
      {"CC-SCHED-DIV", std::string(kFx) + "divergent/bad_direct.cpp", 12},
      {"CC-COLL-DIV", std::string(kFx) + "divergent/bad_direct.cpp", 13},
      {"CC-SCHED-DIV", std::string(kFx) + "divergent/bad_direct.cpp", 20},
      {"CC-COLL-DIV", std::string(kFx) + "divergent/bad_direct.cpp", 23},
      {"CC-SCHED-DIV", std::string(kFx) + "divergent/bad_interproc.cpp", 15},
      {"CC-COLL-DIV-CALL", std::string(kFx) + "divergent/bad_interproc.cpp",
       16},
      // bad_window.cpp: a tracked window's fence is a collective, so the
      // schedule pass sees the rank-guarded epoch too.
      {"CC-SCHED-DIV", std::string(kFx) + "divergent/bad_window.cpp", 11},
      {"CC-COLL-DIV", std::string(kFx) + "divergent/bad_window.cpp", 12},
      {"CC-SCHED-DIV", std::string(kFx) + "divergent/bad_window.cpp", 23},
      {"CC-COLL-DIV-CALL", std::string(kFx) + "divergent/bad_window.cpp", 24},
  };
  EXPECT_EQ(keys(result), expected);
  // clean.cpp (unconditional collectives, rank-guarded p2p, inline allow)
  // must contribute nothing — verified by the exact-set match above.
}

TEST(Collcheck, ScheduleDivergenceFamily) {
  const auto result = scan_fixture("sched");
  const std::set<Key> expected = {
      // bad_div.cpp: mismatched branch schedules + early-return skip.
      {"CC-SCHED-DIV", std::string(kFx) + "sched/bad_div.cpp", 13},
      {"CC-COLL-DIV", std::string(kFx) + "sched/bad_div.cpp", 14},
      {"CC-COLL-DIV", std::string(kFx) + "sched/bad_div.cpp", 16},
      {"CC-SCHED-DIV", std::string(kFx) + "sched/bad_div.cpp", 22},
      {"CC-COLL-DIV", std::string(kFx) + "sched/bad_div.cpp", 25},
      // bad_order.cpp: same multiset, swapped order — direct and via
      // differently-named helper calls.
      {"CC-SCHED-ORDER", std::string(kFx) + "sched/bad_order.cpp", 10},
      {"CC-COLL-DIV", std::string(kFx) + "sched/bad_order.cpp", 11},
      {"CC-COLL-DIV", std::string(kFx) + "sched/bad_order.cpp", 12},
      {"CC-COLL-DIV", std::string(kFx) + "sched/bad_order.cpp", 14},
      {"CC-COLL-DIV", std::string(kFx) + "sched/bad_order.cpp", 15},
      {"CC-SCHED-ORDER", std::string(kFx) + "sched/bad_order.cpp", 32},
      {"CC-COLL-DIV-CALL", std::string(kFx) + "sched/bad_order.cpp", 33},
      {"CC-COLL-DIV-CALL", std::string(kFx) + "sched/bad_order.cpp", 35},
      // bad_loop.cpp: rank-dependent trip counts around collectives.
      {"CC-SCHED-LOOP", std::string(kFx) + "sched/bad_loop.cpp", 10},
      {"CC-COLL-DIV", std::string(kFx) + "sched/bad_loop.cpp", 11},
      {"CC-SCHED-LOOP", std::string(kFx) + "sched/bad_loop.cpp", 17},
      {"CC-COLL-DIV", std::string(kFx) + "sched/bad_loop.cpp", 18},
      // bad_unwind.cpp: collectives on the RankDeadError unwind path,
      // direct and behind a helper.
      {"CC-SCHED-UNWIND", std::string(kFx) + "sched/bad_unwind.cpp", 14},
      {"CC-SCHED-UNWIND", std::string(kFx) + "sched/bad_unwind.cpp", 28},
  };
  EXPECT_EQ(keys(result), expected);
  // clean.cpp (config alternation, schedule-equal arms, order-equal
  // helpers behind different names, invariant loops, sanctioned recovery
  // handler) must contribute nothing — exact-set match above.
}

TEST(Collcheck, FiberReadinessFamily) {
  const auto result = scan_fixture("fiber");
  const std::string dir = std::string(kFx) + "fiber/src/simmpi/";
  const std::set<Key> expected = {
      {"CC-FIBER-BLOCK", dir + "bad_block.cpp", 24},  // cv_.wait
      {"CC-FIBER-BLOCK", dir + "bad_block.cpp", 29},  // sleep_for
      {"CC-FIBER-BLOCK", dir + "bad_block.cpp", 39},  // mutex across barrier
      {"CC-FIBER-TLS", dir + "bad_tls.cpp", 6},
      {"CC-FIBER-TLS", dir + "bad_tls.cpp", 9},
  };
  EXPECT_EQ(keys(result), expected);
  // clean.cpp carries the same primitives under `collcheck: fiber-safe`
  // annotations plus atomic polling — none of it may fire.
}

TEST(Collcheck, RmaEpochFamily) {
  const auto result = scan_fixture("rma");
  const std::set<Key> expected = {
      {"CC-RMA-NOEPOCH", std::string(kFx) + "rma/bad_noepoch.cpp", 13},
      {"CC-RMA-FLAG", std::string(kFx) + "rma/bad_noepoch.cpp", 20},
      {"CC-RMA-NOSUCCEED", std::string(kFx) + "rma/bad_nosucceed.cpp", 13},
  };
  EXPECT_EQ(keys(result), expected);
}

TEST(Collcheck, LayeringFamily) {
  const auto result = scan_fixture("layering");
  const std::set<Key> expected = {
      {"CC-LAYER-UP", std::string(kFx) + "layering/src/ec/bad_up.hpp", 4},
      {"CC-LAYER-CROSS", std::string(kFx) + "layering/src/hash/bad_cross.hpp",
       4},
      {"CC-LAYER-UNKNOWN",
       std::string(kFx) + "layering/src/widgets/unregistered.hpp", 1},
  };
  EXPECT_EQ(keys(result), expected);
}

TEST(Collcheck, DeterminismFamily) {
  const auto result = scan_fixture("determinism");
  const std::set<Key> expected = {
      {"CC-BANNED-FUNC", std::string(kFx) + "determinism/bad_banned.cpp", 10},
      {"CC-BANNED-FUNC", std::string(kFx) + "determinism/bad_banned.cpp", 14},
      {"CC-NONDET-CLOCK",
       std::string(kFx) + "determinism/src/core/bad_clock.cpp", 8},
      {"CC-NONDET-CLOCK",
       std::string(kFx) + "determinism/src/core/bad_clock.cpp", 13},
      {"CC-NONDET-RAND",
       std::string(kFx) + "determinism/src/core/bad_rand.cpp", 9},
      {"CC-NONDET-RAND",
       std::string(kFx) + "determinism/src/core/bad_rand.cpp", 14},
      {"CC-NONDET-RAND",
       std::string(kFx) + "determinism/src/core/bad_rand.cpp", 19},
  };
  EXPECT_EQ(keys(result), expected);
  // clean_harness.cpp proves the scoping: wall clocks and random_device in
  // a harness layer are fine — absent from the exact set above.
}

TEST(Collcheck, LocksetRaceFamily) {
  const auto result = scan_fixture("race");
  const std::set<Key> expected = {
      // The pre-fix FaultSchedule::at_point scan order (the PR-7 race):
      // `ev.fired` read before the rank-ownership filter.
      {"CC-RACE-OWNER", std::string(kFx) + "race/bad_atpoint.cpp", 21},
      {"CC-RACE-UNGUARDED", std::string(kFx) + "race/bad_unguarded.cpp", 17},
      {"CC-RACE-UNGUARDED", std::string(kFx) + "race/bad_unguarded.cpp", 18},
      {"CC-RACE-LOCKORDER", std::string(kFx) + "race/bad_unguarded.cpp", 23},
      {"CC-RACE-LOCKORDER", std::string(kFx) + "race/bad_unguarded.cpp", 29},
  };
  EXPECT_EQ(keys(result), expected);
  // clean.cpp (locked accesses, atomic counter, consistent lock order,
  // filter-first scan) must contribute nothing — exact-set match above.
}

TEST(Collcheck, FailureUnwindFamily) {
  const auto result = scan_fixture("exc");
  const std::set<Key> expected = {
      {"CC-EXC-NOEXCEPT", std::string(kFx) + "exc/bad_noexcept.cpp", 9},
      {"CC-EXC-NOEXCEPT", std::string(kFx) + "exc/bad_noexcept.cpp", 17},
      {"CC-EXC-RESOURCE", std::string(kFx) + "exc/bad_resource.cpp", 13},
      {"CC-EXC-SWALLOW", std::string(kFx) + "exc/bad_resource.cpp", 22},
  };
  EXPECT_EQ(keys(result), expected);
  // clean.cpp (RAII lock across barrier, recover-then-rethrow handler,
  // throw-free noexcept accessor) must contribute nothing.
}

TEST(Collcheck, P2pProtocolFamily) {
  const auto result = scan_fixture("p2p");
  const std::set<Key> expected = {
      {"CC-P2P-UNMATCHED", std::string(kFx) + "p2p/bad_unmatched.cpp", 13},
      {"CC-P2P-UNMATCHED", std::string(kFx) + "p2p/bad_unmatched.cpp", 19},
      {"CC-P2P-SELF", std::string(kFx) + "p2p/bad_selftag.cpp", 14},
      {"CC-P2P-TAGDIV", std::string(kFx) + "p2p/bad_selftag.cpp", 24},
      {"CC-P2P-TAGDIV", std::string(kFx) + "p2p/bad_selftag.cpp", 25},
  };
  EXPECT_EQ(keys(result), expected);
  // clean.cpp (ring shift over matched constant/offset tags) must
  // contribute nothing; kPairTag in bad_unmatched.cpp is matched too.
}

TEST(Collcheck, ProductionScanSkipsFixtures) {
  // Without --include-fixtures, the seeded corpus must never leak into a
  // repo scan.
  const auto result = collcheck::analyze_paths(
      {"tools/collcheck/fixtures"}, COLLCHECK_REPO_ROOT, AnalyzerOptions{});
  EXPECT_TRUE(result.findings.empty());
  EXPECT_TRUE(result.files.empty());
}

TEST(Collcheck, RepoTreeIsCleanModuloBaseline) {
  // The acceptance bar for the repo itself: everything collcheck finds on
  // src/ must be covered by the checked-in baseline.
  const auto result = collcheck::analyze_paths({"src"}, COLLCHECK_REPO_ROOT,
                                               AnalyzerOptions{});
  std::vector<std::string> errors;
  const auto baseline = collcheck::load_baseline(
      std::string(COLLCHECK_REPO_ROOT) + "/tools/collcheck/baseline.txt",
      errors);
  EXPECT_TRUE(errors.empty());
  std::vector<Finding> active;
  for (const Finding& f : result.findings) {
    if (!baseline.suppresses(f)) active.push_back(f);
  }
  for (const Finding& f : active) {
    ADD_FAILURE() << f.file << ":" << f.line << " [" << f.rule << "] "
                  << f.message;
  }
}

TEST(Collcheck, LayerTablePinsTheDag) {
  // The DAG from DESIGN.md §10, pinned so a rank edit is a conscious act.
  EXPECT_EQ(collcheck::layer_rank("kernels"), 0);
  EXPECT_EQ(collcheck::layer_rank("simtime"), 0);
  EXPECT_EQ(collcheck::layer_rank("obs"), 0);
  EXPECT_EQ(collcheck::layer_rank("hash"), 1);
  EXPECT_EQ(collcheck::layer_rank("ec"), 1);
  EXPECT_EQ(collcheck::layer_rank("simmpi"), 2);
  EXPECT_EQ(collcheck::layer_rank("chunk"), 3);
  EXPECT_EQ(collcheck::layer_rank("core"), 4);
  EXPECT_EQ(collcheck::layer_rank("fault"), 5);
  EXPECT_EQ(collcheck::layer_rank("check"), 5);
  EXPECT_EQ(collcheck::layer_rank("recover"), 5);
  EXPECT_EQ(collcheck::layer_rank("ftrt"), 6);
  EXPECT_EQ(collcheck::layer_rank("apps"), 7);
  EXPECT_GE(collcheck::layer_rank("tests"), 100);
  EXPECT_EQ(collcheck::layer_rank("no-such-layer"), -1);

  EXPECT_EQ(collcheck::component_of("src/core/dump.cpp"), "core");
  // The merge kernel family lives at the bottom of the DAG: core's
  // planned HMERGE may depend on it, never the other way around.
  EXPECT_EQ(collcheck::component_of("src/kernels/merge_kernels.cpp"),
            "kernels");
  EXPECT_EQ(
      collcheck::layer_rank(
          collcheck::component_of("src/kernels/merge_kernels.cpp")),
      0);
  EXPECT_EQ(collcheck::component_of("tests/dump_test.cpp"), "tests");
  EXPECT_EQ(collcheck::component_of(
                "tools/collcheck/fixtures/layering/src/ec/bad_up.hpp"),
            "ec");
}

TEST(Collcheck, InlineAllowSuppressesSameAndNextLine) {
  // f demonstrates both placements: a trailing same-line allow on the
  // branch (CC-SCHED-DIV) and a preceding-line allow on the collective
  // (CC-COLL-DIV).  g is identical but unannotated, so both rules fire.
  const std::string src =
      "void f(collrep::simmpi::Comm& comm) {\n"
      "  if (comm.rank() == 0) {  // collcheck:allow(CC-SCHED-DIV)\n"
      "    // collcheck:allow(CC-COLL-DIV)\n"
      "    comm.barrier();\n"
      "  }\n"
      "}\n"
      "void g(collrep::simmpi::Comm& comm) {\n"
      "  if (comm.rank() == 0) {\n"
      "    comm.barrier();\n"
      "  }\n"
      "}\n";
  const auto result =
      collcheck::analyze_sources({{"src/core/allow_demo.cpp", src}});
  const std::set<Key> expected = {
      {"CC-SCHED-DIV", "src/core/allow_demo.cpp", 8},
      {"CC-COLL-DIV", "src/core/allow_demo.cpp", 9},
  };
  EXPECT_EQ(keys(result), expected);
}

TEST(Collcheck, BaselineParsingAndStaleDetection) {
  // Exercised through the string-level API via a temp file is overkill;
  // drive the matcher directly.
  collcheck::Baseline bl;
  bl.entries.push_back({"CC-COLL-DIV", "src/core/x.cpp", 10, "note", false});
  bl.entries.push_back({"CC-COLL-DIV", "src/core/y.cpp", 0, "wild", false});
  bl.entries.push_back({"CC-NONDET-RAND", "src/core/z.cpp", 3, "", false});

  EXPECT_TRUE(bl.suppresses({"CC-COLL-DIV", "src/core/x.cpp", 10, ""}));
  EXPECT_FALSE(bl.suppresses({"CC-COLL-DIV", "src/core/x.cpp", 11, ""}));
  EXPECT_TRUE(bl.suppresses({"CC-COLL-DIV", "src/core/y.cpp", 99, ""}));
  EXPECT_FALSE(bl.suppresses({"CC-RMA-FLAG", "src/core/y.cpp", 99, ""}));

  const auto stale = bl.unused();
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0]->file, "src/core/z.cpp");
}

TEST(Collcheck, BaselineRoundTrip) {
  // write-baseline -> reload -> every original finding suppressed, and a
  // finding that goes away shows up as a stale entry.
  const std::vector<Finding> findings = {
      {"CC-RACE-UNGUARDED", "src/core/a.cpp", 10, "unguarded write"},
      {"CC-EXC-SWALLOW", "src/core/b.cpp", 20, "swallowed # with hash"},
      {"CC-P2P-UNMATCHED", "src/core/c.cpp", 30, "orphan send"},
  };
  const std::string path =
      testing::TempDir() + "/collcheck_roundtrip_baseline.txt";
  {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.is_open());
    out << collcheck::format_baseline(findings);
  }
  std::vector<std::string> errors;
  const auto baseline = collcheck::load_baseline(path, errors);
  EXPECT_TRUE(errors.empty());
  ASSERT_EQ(baseline.entries.size(), findings.size());
  for (const Finding& f : findings) {
    EXPECT_TRUE(baseline.suppresses(f))
        << f.rule << " " << f.file << ":" << f.line;
  }
  EXPECT_TRUE(baseline.unused().empty());

  // Second run where the b.cpp finding was fixed: its entry goes stale.
  std::vector<std::string> errors2;
  const auto baseline2 = collcheck::load_baseline(path, errors2);
  EXPECT_TRUE(baseline2.suppresses(findings[0]));
  EXPECT_TRUE(baseline2.suppresses(findings[2]));
  const auto stale = baseline2.unused();
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0]->file, "src/core/b.cpp");
  EXPECT_EQ(stale[0]->rule, "CC-EXC-SWALLOW");
  std::remove(path.c_str());
}

TEST(Collcheck, SarifOutputIsWellFormed) {
  const std::vector<Finding> findings = {
      {"CC-COLL-DIV", "src/core/dump.cpp", 42, "message with \"quotes\""},
  };
  const std::string sarif = collcheck::to_sarif(findings, "1.2.3");
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"CC-COLL-DIV\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 42"), std::string::npos);
  EXPECT_NE(sarif.find("message with \\\"quotes\\\""), std::string::npos);
  // Every rule in the catalog is described in the driver block.
  for (const collcheck::RuleInfo& r : collcheck::rule_catalog()) {
    EXPECT_NE(sarif.find(std::string(r.id)), std::string::npos)
        << "missing rule " << r.id;
  }
}

TEST(Collcheck, RankConditionalP2pDoesNotFire) {
  // Also through a helper: a callee that reaches only p2p ops is not
  // collective-bearing, so calling it under a rank branch is fine.
  const std::string src =
      "void recv_one(collrep::simmpi::Comm& comm) {\n"
      "  (void)comm.recv_value<int>(0, 7);\n"
      "}\n"
      "void root_io(collrep::simmpi::Comm& comm) {\n"
      "  if (comm.rank() == 0) {\n"
      "    comm.send_value(1, 7, 123);\n"
      "  } else {\n"
      "    (void)comm.recv_value<int>(0, 7);\n"
      "    recv_one(comm);\n"
      "  }\n"
      "  comm.barrier();\n"
      "}\n";
  const auto result =
      collcheck::analyze_sources({{"src/core/p2p_demo.cpp", src}});
  EXPECT_TRUE(result.findings.empty());
}

TEST(Collcheck, TaintFlowsThroughAssignment) {
  const std::string src =
      "void f(collrep::simmpi::Comm& comm) {\n"
      "  const int me = comm.rank();\n"
      "  const int leader = me == 0 ? 1 : 0;\n"
      "  if (leader == 1) {\n"
      "    comm.barrier();\n"
      "  }\n"
      "}\n";
  const auto result =
      collcheck::analyze_sources({{"src/core/taint_demo.cpp", src}});
  const std::set<Key> expected = {
      {"CC-SCHED-DIV", "src/core/taint_demo.cpp", 4},
      {"CC-COLL-DIV", "src/core/taint_demo.cpp", 5},
  };
  EXPECT_EQ(keys(result), expected);
}

TEST(Collcheck, BaselineFixedPointWithScheduleRules) {
  // --write-baseline followed by --fail-on-new must be a fixed point:
  // every finding (including the schedule/fiber families, whose entries
  // carry fixture paths) suppressed, zero stale entries.  This is the
  // drift contract scripts/analyze.sh relies on.
  const auto sched = scan_fixture("sched");
  const auto fiber = scan_fixture("fiber");
  std::vector<Finding> findings = sched.findings;
  findings.insert(findings.end(), fiber.findings.begin(),
                  fiber.findings.end());
  ASSERT_FALSE(findings.empty());
  bool has_sched_rule = false;
  for (const Finding& f : findings) {
    if (f.rule.rfind("CC-SCHED-", 0) == 0 ||
        f.rule.rfind("CC-FIBER-", 0) == 0) {
      has_sched_rule = true;
    }
  }
  ASSERT_TRUE(has_sched_rule);

  const std::string path = testing::TempDir() + "/collcheck_sched_fp.txt";
  {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.is_open());
    out << collcheck::format_baseline(findings);
  }
  std::vector<std::string> errors;
  const auto baseline = collcheck::load_baseline(path, errors);
  EXPECT_TRUE(errors.empty());
  for (const Finding& f : findings) {
    EXPECT_TRUE(baseline.suppresses(f))
        << f.rule << " " << f.file << ":" << f.line;
  }
  EXPECT_TRUE(baseline.unused().empty());
  std::remove(path.c_str());
}

TEST(Collcheck, ScheduleDumpIsByteStableAndCoversEntryPoints) {
  // The --dump-schedules artifact is a CI drift gate: two analyses of the
  // same tree must render byte-identical text, and the snapshot must
  // cover the public entry points named in DESIGN.md §15.
  const auto first = collcheck::analyze_paths({"src"}, COLLCHECK_REPO_ROOT,
                                              AnalyzerOptions{});
  const auto second = collcheck::analyze_paths({"src"}, COLLCHECK_REPO_ROOT,
                                               AnalyzerOptions{});
  const std::string a = collcheck::dump_schedules(first.files);
  const std::string b = collcheck::dump_schedules(second.files);
  EXPECT_EQ(a, b);

  EXPECT_NE(a.find("entry DUMP_OUTPUT = dump_output"), std::string::npos);
  EXPECT_NE(a.find("entry checkpoint_now = checkpoint_now"),
            std::string::npos);
  EXPECT_NE(a.find("entry recover_world = recover_world"),
            std::string::npos);
  EXPECT_NE(a.find("entry repair_replicas = repair_replicas"),
            std::string::npos);
  EXPECT_NE(a.find("entry pfs_restore = pfs_restore"), std::string::npos);
  // The dump is inter-procedural: checkpoint_now's schedule reaches the
  // recovery unwind handler through shielded_dump_attempt.
  EXPECT_NE(a.find("catch<simmpi::RankDeadError>( recover_world{"),
            std::string::npos);
  // p2p ops are visible in dump renderings (unlike ORDER signatures).
  EXPECT_NE(a.find("p2p:send_value"), std::string::npos);
  // A tracked window's fence and free are collective ops of their own,
  // not calls into Window::free's body.
  EXPECT_NE(a.find("ship_shortfall{ win_create ; fence ; free }"),
            std::string::npos);
}

TEST(Collcheck, OrderSignatureInlinesHelpersTransparently) {
  // Two branches calling differently-named helpers with identical
  // schedules must NOT trip CC-SCHED-ORDER: signatures inline callees
  // without their names.
  const std::string src =
      "void ping(collrep::simmpi::Comm& comm) { comm.barrier(); }\n"
      "void pong(collrep::simmpi::Comm& comm) { comm.barrier(); }\n"
      "void route(collrep::simmpi::Comm& comm) {\n"
      "  if (comm.rank() == 0) {  // collcheck:allow(CC-COLL-DIV-CALL)\n"
      "    ping(comm);\n"
      "  } else {\n"
      "    pong(comm);  // collcheck:allow(CC-COLL-DIV-CALL)\n"
      "  }\n"
      "}\n";
  const auto result =
      collcheck::analyze_sources({{"src/core/order_demo.cpp", src}});
  EXPECT_TRUE(result.findings.empty());
}

}  // namespace
