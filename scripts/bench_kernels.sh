#!/usr/bin/env bash
# Kernel throughput gate: builds the Release bench binaries, measures every
# data-plane kernel variant (median of N repetitions, GB/s) plus the
# flat fingerprint-set merge/serialization throughput (entries/s), times
# the fig3b end-to-end bench twice — once with COLLREP_KERNELS=scalar
# (the pre-dispatch baseline) and once with the dispatched kernels — and
# writes the results to BENCH_kernels.json at the repo root.
#
#   scripts/bench_kernels.sh                 # full run
#   COLLREP_QUICK=1 scripts/bench_kernels.sh # scaled-down fig3b
#   COLLREP_BENCH_REPS=3 scripts/bench_kernels.sh
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

build=build-release
reps="${COLLREP_BENCH_REPS:-5}"
out="${COLLREP_BENCH_OUT:-$repo/BENCH_kernels.json}"

cmake -B "$build" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$build" -j "$(nproc)" --target micro_primitives fig3b_reduction_overhead_hpccg

echo "== kernel micro-benchmarks (median of $reps) =="
"$build/bench/micro_primitives" \
  --benchmark_filter='gf_mul_add|crc32c|sha1_blocks|sha1_x16|cdc_chunking|BM_HMergeKway|BM_FpSetSerialization' \
  --benchmark_repetitions="$reps" \
  --benchmark_report_aggregates_only=true \
  --benchmark_format=json > "$build/micro_kernels.json"

fig3b="$build/bench/fig3b_reduction_overhead_hpccg"

echo "== fig3b end-to-end, scalar kernels =="
scalar_s=$( { time -p COLLREP_KERNELS=scalar "$fig3b" > /dev/null; } 2>&1 \
            | awk '/^real/ {print $2}' )
echo "scalar wall-clock: ${scalar_s}s"

echo "== fig3b end-to-end, dispatched kernels =="
dispatched_s=$( { time -p "$fig3b" > /dev/null; } 2>&1 \
                | awk '/^real/ {print $2}' )
echo "dispatched wall-clock: ${dispatched_s}s"

python3 - "$build/micro_kernels.json" "$out" "$reps" "$scalar_s" "$dispatched_s" <<'PY'
import json
import sys

micro_path, out_path, reps, scalar_s, dispatched_s = sys.argv[1:6]
scalar_s, dispatched_s = float(scalar_s), float(dispatched_s)

with open(micro_path) as f:
    report = json.load(f)

# Median aggregates only; strip google-benchmark's parameter suffixes.
medians = {}
for b in report["benchmarks"]:
    if b.get("run_type") != "aggregate" or b.get("aggregate_name") != "median":
        continue
    name = b["name"].rsplit("_median", 1)[0]
    name = name.split("/min_warmup_time", 1)[0]
    medians[name] = b

kernels = {}
for kernel in ("gf_mul_add", "crc32c", "sha1_blocks", "sha1_x16", "cdc_chunking"):
    variants = {}
    for name, b in medians.items():
        if name.startswith(kernel + "/"):
            variants[name.split("/", 1)[1]] = b["bytes_per_second"] / 1e9
    if not variants:
        continue
    baseline_name = "reference" if kernel == "cdc_chunking" else "scalar"
    baseline = variants[baseline_name]
    best = max(variants, key=variants.get)
    kernels[kernel] = {
        "variants_gbps": {k: round(v, 3) for k, v in sorted(variants.items())},
        "baseline": baseline_name,
        "best": best,
        "speedup": round(variants[best] / baseline, 2),
    }

def items(prefix):
    return {
        name.split("/", 1)[1]: round(b["items_per_second"] / 1e6, 3)
        for name, b in medians.items()
        if name.startswith(prefix + "/")
    }

result = {
    "repetitions": int(reps),
    "kernels": kernels,
    "fp_set": {
        "merge_many_mentries_per_s": items("BM_HMergeKway"),
        "serialization_mentries_per_s": items("BM_FpSetSerialization"),
    },
    "fig3b": {
        "scalar_wall_s": scalar_s,
        "dispatched_wall_s": dispatched_s,
        "speedup": round(scalar_s / dispatched_s, 2),
    },
}

with open(out_path, "w") as f:
    json.dump(result, f, indent=2)
    f.write("\n")

print(f"wrote {out_path}")
for kernel, info in kernels.items():
    print(f"  {kernel}: {info['best']} {info['speedup']}x over {info['baseline']}")
print(f"  fig3b: {result['fig3b']['speedup']}x")
PY
