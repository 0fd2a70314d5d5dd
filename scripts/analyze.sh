#!/usr/bin/env bash
# collcheck gate: build the project-specific static analyzer and run it over
# the tree.  Exits non-zero on any finding not covered by the checked-in
# baseline (tools/collcheck/baseline.txt) or an inline
# `// collcheck:allow(RULE)` comment.  Rule catalog: `collcheck --list-rules`
# or DESIGN.md §10/§13/§15.
#
#   scripts/analyze.sh              # analyze src/ tools/ bench/ tests/ examples/
#   scripts/analyze.sh --fail-on-new   # also fail on STALE baseline entries,
#                                      # printing a +/- diff against baseline
#   scripts/analyze.sh --update-schedules  # regenerate the checked-in
#                                      # schedule snapshot after an intended
#                                      # collective-schedule change
#   COLLCHECK_SARIF=out.sarif scripts/analyze.sh        # also write SARIF
#   COLLCHECK_SELF_SARIF=self.sarif scripts/analyze.sh  # SARIF for self-scan
#   COLLCHECK_COLLPROF_SARIF=p.sarif                    # SARIF for collprof scan
#   COLLCHECK_BENCH_SARIF=b.sarif                       # SARIF for bench scan
#
# Beyond the tree scan, this runs three scoped scans with their own
# baselines (the analyzer, profiler, and bench harness each stay clean
# independently of the main baseline) and the schedule-drift gate: the
# canonical per-entry-point collective schedules (--dump-schedules) must
# match the checked-in tools/collcheck/schedules.txt byte for byte, so a
# PR that reorders or drops collectives shows up as a reviewable diff.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

extra=()
update_schedules=0
for arg in "$@"; do
  case "$arg" in
    --fail-on-new) extra+=(--fail-on-new) ;;
    --update-schedules) update_schedules=1 ;;
    *) echo "analyze.sh: unknown argument '$arg'" >&2; exit 2 ;;
  esac
done

build_dir="${COLLCHECK_BUILD_DIR:-build-analyze}"
cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$build_dir" --target collcheck -j "$(nproc)" >/dev/null

collcheck_bin="$build_dir/tools/collcheck/collcheck"

args=(--repo-root "$repo" --baseline tools/collcheck/baseline.txt)
if [[ -n "${COLLCHECK_SARIF:-}" ]]; then
  args+=(--sarif "$COLLCHECK_SARIF")
fi

echo "== analyze: collcheck =="
"$collcheck_bin" "${args[@]}" "${extra[@]}" \
    src tools bench tests examples

# Self-analysis: the analyzer must hold itself to the rules it enforces
# (no baseline here — the tool's own tree stays clean, full stop).
self_args=(--repo-root "$repo")
if [[ -n "${COLLCHECK_SELF_SARIF:-}" ]]; then
  self_args+=(--sarif "$COLLCHECK_SELF_SARIF")
fi
echo "== analyze: collcheck (self) =="
"$collcheck_bin" "${self_args[@]}" tools/collcheck

# Scoped scans with their own baselines: the causal profiler and the bench
# harness are instrumentation/measurement code with different idioms from
# the product tree, so their intentional exceptions are tracked separately
# instead of widening the main baseline.
collprof_args=(--repo-root "$repo"
               --baseline tools/collcheck/baseline_collprof.txt)
if [[ -n "${COLLCHECK_COLLPROF_SARIF:-}" ]]; then
  collprof_args+=(--sarif "$COLLCHECK_COLLPROF_SARIF")
fi
echo "== analyze: collcheck (collprof) =="
"$collcheck_bin" "${collprof_args[@]}" "${extra[@]}" tools/collprof

bench_args=(--repo-root "$repo"
            --baseline tools/collcheck/baseline_bench.txt)
if [[ -n "${COLLCHECK_BENCH_SARIF:-}" ]]; then
  bench_args+=(--sarif "$COLLCHECK_BENCH_SARIF")
fi
echo "== analyze: collcheck (bench) =="
"$collcheck_bin" "${bench_args[@]}" "${extra[@]}" bench

# Schedule-drift gate: regenerate the canonical per-entry-point schedule
# snapshot from src/ and compare it to the checked-in artifact.  A diff
# means a PR changed the collective schedule of a public entry point —
# legitimate changes re-run with --update-schedules and commit the result.
snapshot=tools/collcheck/schedules.txt
current="$build_dir/schedules.current.txt"
echo "== analyze: schedule drift =="
"$collcheck_bin" --repo-root "$repo" \
    --baseline tools/collcheck/baseline.txt \
    --dump-schedules "$current" src >/dev/null
if [[ "$update_schedules" == 1 ]]; then
  cp "$current" "$snapshot"
  echo "schedule snapshot updated: $snapshot"
elif ! cmp -s "$current" "$snapshot"; then
  echo "analyze.sh: collective schedule drift detected:" >&2
  diff -u "$snapshot" "$current" >&2 || true
  echo "analyze.sh: if this change is intended, run" >&2
  echo "  scripts/analyze.sh --update-schedules" >&2
  echo "and commit the regenerated $snapshot" >&2
  exit 1
else
  echo "schedules match $snapshot"
fi

echo "analyze: OK"
