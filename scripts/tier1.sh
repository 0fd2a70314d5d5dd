#!/usr/bin/env bash
# Tier-1 gate: configure, build (warnings as errors), and run the full test
# suite — what CI and the PR driver run.  Optionally follow with a sanitizer
# build of the runtime-heavy tests (everything ctest labels `runtime`; the
# list lives in tests/CMakeLists.txt so it cannot go stale here):
#
#   scripts/tier1.sh                       # plain tier-1
#   COLLREP_SANITIZE=address scripts/tier1.sh    # + ASan pass
#   COLLREP_SANITIZE=undefined scripts/tier1.sh  # + UBSan pass
#   COLLREP_SANITIZE=thread scripts/tier1.sh     # + TSan pass
#
# The thread mode is the one that audits the simmpi threading model itself
# (ranks are threads): it must run clean over the `runtime` label, including
# the src/check verification layer's own watchdog/cross-check threads.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

cmake -B build -S . -DCOLLREP_WERROR=ON
cmake --build build -j "$(nproc)"
(cd build && ctest --output-on-failure -j)

# collcheck rides the tier-1 build (the binary is part of the default
# target): zero-cost static gate over the whole tree.  Rule catalog in
# DESIGN.md §10; intentional exceptions live in tools/collcheck/baseline.txt.
echo "== collcheck =="
build/tools/collcheck/collcheck --repo-root "$repo" \
    --baseline tools/collcheck/baseline.txt \
    src tools bench tests examples

if [[ -n "${COLLREP_SANITIZE:-}" ]]; then
  san_dir="build-${COLLREP_SANITIZE}"
  echo "== sanitizer pass (${COLLREP_SANITIZE}) =="
  cmake -B "$san_dir" -S . -DCOLLREP_SANITIZE="${COLLREP_SANITIZE}" \
        -DCOLLREP_WERROR=ON
  cmake --build "$san_dir" -j "$(nproc)"
  # The threaded-runtime tests are where a sanitizer earns its keep; the
  # `kernels` label rides along so every dispatched SIMD path gets an
  # ASan/TSan pass too, `recover` keeps the shrink/containment protocol
  # (rank death mid-collective) explicitly in the net even if its suite
  # ever sheds the `runtime` label, and `analyze` puts the collcheck rule
  # engine plus its byte-mutation fuzz harness under ASan/UBSan — the
  # analyzer parses arbitrary PR sources and must not be the flaky link —
  # and `fuzz` does the same for every wire type a rank decodes.
  (cd "$san_dir" && ctest -L 'runtime|kernels|recover|analyze|fuzz' \
      --output-on-failure -j)
fi

echo "tier1: OK"
