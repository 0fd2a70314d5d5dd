#!/usr/bin/env bash
# Profiling + perf-gate smoke: run the fig3b bench with causal tracing on,
# feed the exported trace through collprof, and hold the results to the
# checked-in baselines (bench/baselines/) with scripts/perf_gate.py.
#
#   scripts/profile_smoke.sh           # quick-mode fig3b + collprof + gate
#   COLLREP_PROFILE_OUT=dir scripts/profile_smoke.sh   # keep artifacts there
#
# Everything gated here is deterministic *simulated* time, so the gate is
# exact across machines; only compiler floating-point drift is tolerated
# (see the tolerances in scripts/perf_gate.py).
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

build_dir="${COLLREP_PROFILE_BUILD_DIR:-build-profile}"
out_dir="${COLLREP_PROFILE_OUT:-$build_dir/profile-out}"
mkdir -p "$out_dir"

cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$build_dir" -j "$(nproc)" \
    --target fig3b_reduction_overhead_hpccg collprof >/dev/null

echo "== profile: fig3b with causal tracing =="
COLLREP_QUICK=1 "$build_dir/bench/fig3b_reduction_overhead_hpccg" \
    "--trace=$out_dir/fig3b_trace.json" \
    "--profile=$out_dir/profile_fig3b_quick.json" >/dev/null

echo "== profile: collprof critical-path analysis =="
"$build_dir/tools/collprof/collprof" --require-clean \
    --json "$out_dir/profile_from_trace.json" \
    --augment "$out_dir/fig3b_trace_augmented.json" \
    "$out_dir/fig3b_trace.json"

# The in-process profile and the trace-file reconstruction must agree
# byte-for-byte; a divergence means the flow/sync edges got lost somewhere
# between the recorder and the exporter.
cmp "$out_dir/profile_fig3b_quick.json" "$out_dir/profile_from_trace.json"
echo "profile: in-process and trace-file profiles are byte-identical"

echo "== profile: perf-regression gate =="
python3 scripts/perf_gate.py \
    BENCH_kernels=BENCH_kernels.json \
    "profile_fig3b_quick=$out_dir/profile_fig3b_quick.json"

echo "profile smoke: OK (artifacts in $out_dir)"
