// collcheck analysis driver: file collection, per-file parsing, the
// per-function pass (rank taint, RMA epochs, collective classification),
// the token and layering rules, and the hand-off to the dataflow and
// schedule rule passes.  See DESIGN.md §10, §13 and §15.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "model.hpp"

namespace collcheck {

struct AnalyzerOptions {
  // Scan files under directories named "fixtures" (off for production
  // scans so the seeded-bug corpus never pollutes a repo run; the test
  // suite turns it on to point collcheck straight at the corpus).
  bool include_fixtures = false;
};

struct AnalysisResult {
  std::vector<FileUnit> files;
  std::vector<Finding> findings;  // sorted by (file, line, rule)
};

// Analyze in-memory sources: (repo-relative path, content) pairs.  The unit
// the test suite drives directly.
[[nodiscard]] AnalysisResult analyze_sources(
    std::vector<std::pair<std::string, std::string>> sources);

// Walk `paths` (files or directories) under `repo_root`, read every
// C++ source, and analyze.  Paths outside repo_root are reported relative
// to the filesystem root they live on.
[[nodiscard]] AnalysisResult analyze_paths(const std::vector<std::string>& paths,
                                           const std::string& repo_root,
                                           const AnalyzerOptions& options);

// Layer rank for a component name; returns -1 when unknown.  Exposed for
// the tests that pin the DAG.
[[nodiscard]] int layer_rank(const std::string& component);

// Component for a repo-relative path ("core" for src/core/dump.cpp,
// "tests" for tests/foo.cpp, "" when unmapped).
[[nodiscard]] std::string component_of(const std::string& rel_path);

}  // namespace collcheck
