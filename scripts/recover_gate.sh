#!/usr/bin/env bash
# Recovery perf gate: run the quick-mode recovery ablation (deterministic
# simulated time, 8 ranks) and hold its recover.* metrics to
# bench/baselines/recovery_quick.json via scripts/perf_gate.py — recovery
# latency and rereplicated-byte regressions fail here.
#
#   scripts/recover_gate.sh [path/to/ablate_recovery]
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

bench="${1:-build/bench/ablate_recovery}"
if [[ ! -x "$bench" ]]; then
  cmake -B build -S .
  cmake --build build -j "$(nproc)" --target ablate_recovery
  bench="build/bench/ablate_recovery"
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
COLLREP_QUICK=1 "$bench" --seed=1 --metrics="$tmp/recovery_quick.json" \
  > /dev/null 2>&1
python3 scripts/perf_gate.py recovery_quick="$tmp/recovery_quick.json"
