#!/usr/bin/env bash
# Fault-injection determinism sweep: runs the failure and recovery
# ablations twice per seed and requires bit-identical stdout and metrics
# JSON.  Seeded victim selection plus the simulated clock make every run
# reproducible — any divergence here means nondeterminism crept into the
# fault, repair, or shrink-recovery path.
#
#   scripts/fault_sweep.sh                 # default seeds
#   scripts/fault_sweep.sh 11 22 33        # explicit seeds
#   COLLREP_QUICK=1 scripts/fault_sweep.sh # reduced rank count
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

benches=(ablate_failures ablate_recovery)
for b in "${benches[@]}"; do
  if [[ ! -x "build/bench/$b" ]]; then
    cmake -B build -S .
    cmake --build build -j "$(nproc)" --target "$b"
  fi
done

seeds=("$@")
if [[ ${#seeds[@]} -eq 0 ]]; then
  seeds=(1 7 42 1234)
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

fail=0
for b in "${benches[@]}"; do
  for seed in "${seeds[@]}"; do
    for run in a b; do
      "build/bench/$b" --seed="$seed" --metrics="$tmp/$b.$seed.$run.json" \
        > "$tmp/$b.$seed.$run.txt" 2> /dev/null
    done
    if cmp -s "$tmp/$b.$seed.a.json" "$tmp/$b.$seed.b.json" &&
       cmp -s "$tmp/$b.$seed.a.txt" "$tmp/$b.$seed.b.txt"; then
      echo "$b seed $seed: OK (stdout and metrics bit-identical)"
    else
      echo "$b seed $seed: FAIL (runs diverged)" >&2
      diff "$tmp/$b.$seed.a.txt" "$tmp/$b.$seed.b.txt" >&2 || true
      fail=1
    fi
  done
done

if [[ "$fail" -ne 0 ]]; then
  echo "fault_sweep: FAIL" >&2
  exit 1
fi
echo "fault_sweep: OK"
