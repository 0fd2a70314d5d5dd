#!/usr/bin/env bash
# Static-analysis gate: clang-tidy over the whole tree (profile in
# .clang-tidy — bugprone-*, concurrency-*, performance-*, warnings as
# errors).  Containers without clang-tidy fall back to a strict GCC
# warnings-as-errors build with the extra diagnostics below, so the gate
# always has teeth.
#
#   scripts/lint.sh            # lint src/ tests/ bench/ examples/
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

lint_dir=build-lint
cmake -B "$lint_dir" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
      -DCOLLREP_WERROR=ON >/dev/null

if command -v clang-tidy >/dev/null 2>&1; then
  echo "== lint: clang-tidy =="
  mapfile -t sources < <(git ls-files 'src/**/*.cpp' 'tests/*.cpp' \
                                      'bench/*.cpp' 'examples/*.cpp')
  if command -v run-clang-tidy >/dev/null 2>&1; then
    run-clang-tidy -p "$lint_dir" -quiet "${sources[@]}"
  else
    clang-tidy -p "$lint_dir" --quiet "${sources[@]}"
  fi
else
  # The fallback is a full rebuild with every additional GCC diagnostic the
  # tree is expected to keep clean (tier1 already enforces -Wall -Wextra
  # -Werror; these go beyond it).  -Wuseless-cast is deliberately absent:
  # it flags casts like size_t -> uint64_t that are no-ops on LP64 but
  # required for portability.
  echo "== lint: clang-tidy not found, strict GCC warnings fallback =="
  strict_flags="-Wshadow -Wnon-virtual-dtor -Woverloaded-virtual \
-Wcast-qual -Wlogical-op -Wduplicated-cond -Wduplicated-branches \
-Wnull-dereference -Wundef -Wredundant-decls"
  cmake -B "$lint_dir" -S . -DCOLLREP_WERROR=ON \
        -DCMAKE_CXX_FLAGS="$strict_flags" >/dev/null
  cmake --build "$lint_dir" -j "$(nproc)"
fi

# Project-specific rules (collective matching, RMA epochs, layer DAG,
# determinism) that no generic linter knows about; shares its entry point
# with the CI analyze job.
COLLCHECK_BUILD_DIR="$lint_dir" scripts/analyze.sh

echo "lint: OK"
