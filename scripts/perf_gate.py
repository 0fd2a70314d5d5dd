#!/usr/bin/env python3
"""Perf-regression gate: diff benchmark / profile JSONs against baselines.

Usage:
    perf_gate.py [--baselines DIR] [--list] NAME=PATH ...
    perf_gate.py --self-test

Each NAME=PATH pair names a current-results JSON file; the baseline is
bench/baselines/NAME.json (override the directory with --baselines).  NAME
selects a ruleset below via fnmatch, and every numeric leaf in the baseline
that matches one of the ruleset's path patterns is compared against the
current value with the rule's direction and tolerance:

  - "higher" metrics (throughput, speedup) regress when
        current < baseline * (1 - rel_tol)
  - "lower" metrics (latency, drop counters) regress when
        current > baseline * (1 + rel_tol)  and  current - baseline > abs_tol

A metric present in the baseline but missing from the current file is a
failure (renames must update the baseline deliberately).  Metrics matching
no pattern are ignored, so reports can grow freely.

The kernels numbers (BENCH_kernels.json) are host-dependent, so CI gates
the *checked-in* file against its baseline — the ratchet trips when a
regenerated, slower result is committed without a deliberate baseline
update.  Profile JSONs carry deterministic *simulated* time and are gated
on freshly produced results; the tolerance only absorbs cross-compiler
floating-point drift.

Exit codes: 0 pass, 1 regression, 2 usage or I/O error.
"""

import fnmatch
import json
import re
import sys
from pathlib import Path

DEFAULT_BASELINES = Path(__file__).resolve().parent.parent / "bench" / "baselines"

# ruleset name pattern -> [(metric path regex, direction, rel_tol, abs_tol)]
RULESETS = {
    "BENCH_kernels": [
        (r"^kernels\.[^.]+\.variants_gbps\.[^.]+$", "higher", 0.10, 0.0),
        (r"^kernels\.[^.]+\.speedup$", "higher", 0.10, 0.0),
        (r"^fp_set\..*$", "higher", 0.10, 0.0),
        (r"^fig3b\.speedup$", "higher", 0.15, 0.0),
    ],
    "profile_*": [
        (r"^dumps\.\d+\.total_s$", "lower", 0.02, 1e-6),
        (r"^dumps\.\d+\.phases\.\d+\.critical_s$", "lower", 0.05, 1e-5),
        (r"^(dropped_events|unmatched_flows|unmatched_syncs)$",
         "lower", 0.0, 0.0),
    ],
    "recovery_*": [  # ablate_recovery --metrics JSON (simulated time, so
        # deterministic; tolerance only absorbs FP drift).  The byte
        # counters are exact ratchets: the rebalance must keep shipping
        # only the replica shortfall.
        (r"^gauges\.recover\.last\.(total_time_s|agreement_time_s)$",
         "lower", 0.02, 1e-6),
        (r"^histograms\.recover\.latency_s\.(sum|max)$", "lower", 0.02, 1e-6),
        (r"^counters\.recover\.rereplicated_bytes$", "lower", 0.0, 0.0),
    ],
    "BENCH_*": [  # other bench reports: any throughput-named leaf
        (r".*(_gbps|_per_s|speedup)([.].*)?$", "higher", 0.10, 0.0),
    ],
}


def flatten(node, prefix=""):
    """Yield (dotted_path, value) for every numeric leaf."""
    if isinstance(node, dict):
        for key, val in node.items():
            yield from flatten(val, f"{prefix}.{key}" if prefix else key)
    elif isinstance(node, list):
        for i, val in enumerate(node):
            yield from flatten(val, f"{prefix}.{i}" if prefix else str(i))
    elif isinstance(node, bool):
        return  # bools are ints in Python; never a gated metric
    elif isinstance(node, (int, float)):
        yield prefix, float(node)


def ruleset_for(name):
    for pattern, rules in RULESETS.items():
        if fnmatch.fnmatchcase(name, pattern):
            return rules
    return None


def compare(name, baseline, current):
    """Return a list of failure strings for one NAME's baseline/current."""
    rules = ruleset_for(name)
    if rules is None:
        return [f"{name}: no ruleset matches this name "
                f"(known: {', '.join(RULESETS)})"]
    failures = []
    cur = dict(flatten(current))
    gated = 0
    for path, base_val in flatten(baseline):
        rule = next(((d, rt, at) for rx, d, rt, at in rules
                     if re.match(rx, path)), None)
        if rule is None:
            continue
        direction, rel_tol, abs_tol = rule
        gated += 1
        if path not in cur:
            failures.append(f"{name}: {path}: metric missing from current "
                            f"results (baseline {base_val:g})")
            continue
        cur_val = cur[path]
        if direction == "higher":
            floor = base_val * (1.0 - rel_tol)
            if cur_val < floor and base_val - cur_val > abs_tol:
                failures.append(
                    f"{name}: {path}: {cur_val:g} < {floor:g} "
                    f"(baseline {base_val:g}, -{rel_tol:.0%} allowed)")
        else:
            ceil = base_val * (1.0 + rel_tol)
            if cur_val > ceil and cur_val - base_val > abs_tol:
                failures.append(
                    f"{name}: {path}: {cur_val:g} > {ceil:g} "
                    f"(baseline {base_val:g}, +{rel_tol:.0%} allowed)")
    if gated == 0:
        failures.append(f"{name}: baseline has no gated metrics "
                        f"(wrong file or stale ruleset?)")
    return failures


def self_test():
    """Prove the gate trips on inflated baselines and passes honest runs."""
    real = {
        "kernels": {"crc32c": {"variants_gbps": {"sse42": 7.2},
                               "speedup": 21.5}},
        "fig3b": {"speedup": 2.47},
    }
    inflated = json.loads(json.dumps(real))
    inflated["kernels"]["crc32c"]["variants_gbps"]["sse42"] *= 1.20
    inflated["kernels"]["crc32c"]["speedup"] *= 1.20

    prof_real = {"dropped_events": 0,
                 "dumps": [{"total_s": 0.0325,
                            "phases": [{"critical_s": 0.028}]}]}
    prof_slow = json.loads(json.dumps(prof_real))
    prof_slow["dumps"][0]["total_s"] *= 1.20

    cases = [
        ("equal baseline passes",
         compare("BENCH_kernels", real, real), False),
        ("20%-inflated baseline fails",
         compare("BENCH_kernels", inflated, real), True),
        ("improvement passes",
         compare("BENCH_kernels", real, inflated), False),
        ("profile: equal passes",
         compare("profile_fig3b_quick", prof_real, prof_real), False),
        ("profile: 20% slower dump fails",
         compare("profile_fig3b_quick", prof_real, prof_slow), True),
        ("profile: new drops fail",
         compare("profile_fig3b_quick", prof_real,
                 {**prof_real, "dropped_events": 3}), True),
        ("missing metric fails",
         compare("BENCH_kernels", real, {"kernels": {}}), True),
    ]
    ok = True
    for label, failures, expect_fail in cases:
        got_fail = bool(failures)
        status = "ok" if got_fail == expect_fail else "SELF-TEST BROKEN"
        if got_fail != expect_fail:
            ok = False
        print(f"perf_gate self-test: {label}: {status}")
        if got_fail != expect_fail:
            for f in failures:
                print(f"    {f}")
    return 0 if ok else 1


def main(argv):
    baselines_dir = DEFAULT_BASELINES
    pairs = []
    args = argv[1:]
    i = 0
    while i < len(args):
        arg = args[i]
        if arg == "--baselines":
            if i + 1 >= len(args):
                print("perf_gate: --baselines requires a value",
                      file=sys.stderr)
                return 2
            baselines_dir = Path(args[i + 1])
            i += 2
        elif arg == "--self-test":
            return self_test()
        elif arg == "--list":
            for pattern, rules in RULESETS.items():
                print(pattern)
                for rx, direction, rel_tol, abs_tol in rules:
                    print(f"  {rx}  [{direction}, rel {rel_tol:.0%},"
                          f" abs {abs_tol:g}]")
            return 0
        elif arg in ("--help", "-h"):
            print(__doc__)
            return 0
        elif "=" in arg and not arg.startswith("-"):
            name, _, path = arg.partition("=")
            pairs.append((name, Path(path)))
            i += 1
        else:
            print(f"perf_gate: unknown argument '{arg}'", file=sys.stderr)
            return 2
    if not pairs:
        print("perf_gate: no NAME=PATH pairs given", file=sys.stderr)
        print(__doc__, file=sys.stderr)
        return 2

    failures = []
    for name, path in pairs:
        base_path = baselines_dir / f"{name}.json"
        try:
            baseline = json.loads(base_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"perf_gate: cannot read baseline {base_path}: {exc}",
                  file=sys.stderr)
            return 2
        try:
            current = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"perf_gate: cannot read current results {path}: {exc}",
                  file=sys.stderr)
            return 2
        these = compare(name, baseline, current)
        failures.extend(these)
        gated = sum(1 for p, _ in flatten(baseline)
                    if any(re.match(rx, p) for rx, *_ in ruleset_for(name) or []))
        state = "FAIL" if these else "ok"
        print(f"perf_gate: {name}: {gated} gated metrics vs {base_path.name}:"
              f" {state}")
    for failure in failures:
        print(f"perf_gate: REGRESSION: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
