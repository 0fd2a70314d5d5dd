#!/usr/bin/env python3
"""CollRep end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  The first run builds perfbench/collbench
(and the CollRep libraries from src/) into .bench_build/.  Workloads and
their parameters are in perfbench/workloads.json; metric names and units
are the ones BENCHMARK.json lists.

--trace 0 prints every end-to-end metric.  --trace 1 prints every per-layer
metric; it also writes, under .bench_build/reports/<run>/, a Chrome
trace-event file (trace.json, loads in Perfetto), the per-layer table
(layers.txt, also printed) and the program's MetricsRegistry
(metrics.json).  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.

End-to-end metrics (BENCHMARK.json end_to_end; medians over the run):
  setup_s          process CPU (user+sys) from process start to the first
                   timed call: loading, runtime construction, input
                   generation, app init, store allocation; median over the
                   run's own process and the extra set-up-only processes
                   that workloads.json's "setups" asks for
  dump_cpu_s       process CPU per Dumper::dump_output (getrusage around the
                   call on rank 0, after a barrier)
  iter_cpu_s       process CPU per checkpoint cycle: store reset, dump and
                   collect (fig_wide, ckpt_deep); the whole restart cycle less
                   the benchmark's own checks (restart)
  dump_sim_s, replicated_bytes_per_rank, max_recv_bytes,
  stored_bytes_per_input_byte
                   sim-clock results of the run's first iterations
                   (GlobalDumpStats completion_time_s, avg_sent_bytes,
                   max_recv_bytes, total_stored / total_dataset bytes)
  peak_rss_mb      getrusage ru_maxrss at exit
Host wall times (setup_wall_s, dump_wall_p50_s, dump_wall_p90_s,
iter_wall_p50_s and, on restart, repair/restore/recover_wall_p50_s), the
restart sim times, the hypervisor's steal share during dumps and
error_rate (failed / attempted operations) are printed beside them.  They
are not in BENCHMARK.json: wall times on a host with varying vCPU steal
spread across runs by more than any bound allows, and restart-only values
do not exist on the other workloads.

Outputs are checked on every run (collbench counts each failed check as a
failed operation).  Sim-clock results and exact counts must be
bit-identical between the untraced and traced loops of a run and across
runs with the same seed of the same sources (digests kept under
.bench_build/determinism/); a difference fails the run.
"""
import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
BUILD = ROOT / ".bench_build" / "perfbench"
REPORTS = ROOT / ".bench_build" / "reports"
DIGESTS = ROOT / ".bench_build" / "determinism"
DEADLINE_S = 170.0  # a run must end within 180 s

# Units of the values collbench reports beside the BENCHMARK.json
# end-to-end metrics (host wall times, steal, restart-only results).
EXTRA_UNITS = {"dump_steal_frac": "ratio"}

# Probe spans that each stand for one step of dump_output; their summed
# wall time over the real dump span is trace.coverage_frac.
PIPELINE_PROBES = [
    ("core.local_dedup", "bench.probe"),
    ("core.BoundedFpSet.build", "bench.probe"),
    ("simmpi.reduce_kway", "bench.probe"),
    ("simmpi.bcast", "bench.probe"),
    ("core.plan", "bench.probe"),
    ("simmpi.window_epoch", "bench.probe"),
    ("chunk.ChunkStore.put", "bench.probe"),
]

# Per-layer metrics read from spans: (span name, required parent span name
# or None, aggregate, scale).  "wall" is the per-iteration maximum over
# ranks of the span's duration; "sum" the per-iteration sum over ranks;
# "count" the per-iteration sum of the span's work counter; "per_op" the
# wall divided by the span's per-rank operation count.  Each is the median
# over traced iterations, and 0 where the workload never makes the call.
SPAN_METRICS = {
    "simmpi.barrier_us": ("simmpi.barrier", "bench.collectives", "per_op", 1e6),
    "simmpi.allreduce_us": ("simmpi.allreduce", "bench.collectives", "per_op", 1e6),
    "simmpi.allgather_us": ("simmpi.allgather", "bench.collectives", "per_op", 1e6),
    "simmpi.bcast_us": ("simmpi.bcast", "bench.collectives", "per_op", 1e6),
    "simmpi.window_epoch_ms": ("simmpi.window_epoch", None, "wall", 1e3),
    "core.local_dedup_s": ("core.local_dedup", None, "wall", 1.0),
    "core.fpset_build_s": ("core.BoundedFpSet.build", None, "wall", 1.0),
    "core.merge_many_s": ("core.BoundedFpSet.merge_many", None, "sum", 1.0),
    "core.merge_entries_scanned": ("core.BoundedFpSet.merge_many", None, "count", 1.0),
    "core.plan_s": ("core.plan", None, "wall", 1.0),
    "core.dump_output_s": ("core.Dumper.dump_output", None, "wall", 1.0),
    "core.collect_s": ("core.Dumper.collect", None, "wall", 1.0),
    "core.repair_replicas_s": ("core.repair_replicas", None, "wall", 1.0),
    "core.restore_input_s": ("core.restore_input", None, "wall", 1.0),
    "chunk.store_put_s": ("chunk.ChunkStore.put", None, "wall", 1.0),
    "chunk.store_get_s": ("chunk.ChunkStore.get", None, "wall", 1.0),
    "recover.recover_world_s": ("recover.RecoveryService.recover_world", None, "wall", 1.0),
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


# ---- build ---------------------------------------------------------------------------

def build():
    """Configures (once) and builds collbench; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit("perfbench: run from the root of a CollRep checkout "
                         "(src/CMakeLists.txt not found)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise SystemExit("perfbench: cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD), "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        raise SystemExit("perfbench: build failed")
    return BUILD / "collbench"


def source_digest():
    """Hash of the sources the benchmark builds, to key determinism digests."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


# ---- one collbench run ---------------------------------------------------------------

def run_collbench(exe, params, seed, seconds, trace, inject, out):
    """Runs collbench; returns its result.json, or None and the reason."""
    out.mkdir(parents=True, exist_ok=True)
    for stale in ("result.json", "spans.tsv", "metrics.json"):
        (out / stale).unlink(missing_ok=True)
    cmd = [str(exe), "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace),
           "--out", str(out), "--inject", inject]
    for key, value in params.items():
        cmd += ["--" + key, str(value)]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        return None, f"collbench did not end within {DEADLINE_S:g} s"
    if proc.returncode != 0:
        return None, f"collbench exited with {proc.returncode}"
    return load_json(out / "result.json"), None


# ---- spans ---------------------------------------------------------------------------

def load_spans(path):
    spans = []
    with open(path) as f:
        for line in f:
            sid, parent, name, rank, it, start, end, cpu, count = \
                line.rstrip("\n").split("\t")
            spans.append({"id": int(sid), "parent": int(parent), "name": name,
                          "rank": int(rank), "iter": int(it),
                          "start": int(start), "end": int(end),
                          "cpu": int(cpu), "count": int(count)})
    return spans


def annotate_self_times(spans):
    """Adds self (span minus the union of its children's intervals), cpu_self
    (thread CPU minus that of its children on the same thread) and
    parent_name to every span; returns violations of span nesting.

    A child must lie within its parent's [start, end] and a parent's
    thread CPU must cover its same-thread children's.  Both hold by
    construction when spans nest, so either failing is a bug in the span
    recording, and the self times built on it would be wrong."""
    by_id = {s["id"]: s for s in spans}
    children = defaultdict(list)
    violations = []
    for s in spans:
        parent = by_id.get(s["parent"])
        s["parent_name"] = parent["name"] if parent else ""
        if s["parent"] and parent is None:
            violations.append(f"{s['name']} (rank {s['rank']}): parent span "
                              f"{s['parent']} was not recorded")
        elif parent:
            children[parent["id"]].append(s)
            if not parent["start"] <= s["start"] <= s["end"] <= parent["end"]:
                violations.append(f"{s['name']} (rank {s['rank']}): not nested in "
                                  f"its parent {parent['name']}")
    for s in spans:
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted((c["start"], c["end"]) for c in children[s["id"]]):
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        dur = s["end"] - s["start"]
        s["self"] = dur - covered
        s["cpu_self"] = s["cpu"] - sum(c["cpu"] for c in children[s["id"]]
                                       if c["rank"] == s["rank"])
        if s["cpu_self"] < 0:
            violations.append(f"{s['name']} (rank {s['rank']}): children on its "
                              "thread used more CPU than the span")
    return violations


def per_iteration(spans, name, parent=None):
    groups = defaultdict(list)
    for s in spans:
        if s["iter"] >= 0 and s["name"] == name and \
                (parent is None or s["parent_name"] == parent):
            groups[s["iter"]].append(s)
    return groups


def aggregate(group, how):
    if how == "wall":
        return max(s["end"] - s["start"] for s in group) * 1e-9
    if how == "sum":
        return sum(s["end"] - s["start"] for s in group) * 1e-9
    if how == "count":
        return float(sum(s["count"] for s in group))
    if how == "per_op":
        ops = max(1, max(s["count"] for s in group))
        return max(s["end"] - s["start"] for s in group) * 1e-9 / ops
    raise ValueError(how)


def span_metrics(spans):
    out = {}
    for metric, (name, parent, how, scale) in SPAN_METRICS.items():
        vals = [aggregate(g, how) for g in per_iteration(spans, name, parent).values()]
        out[metric] = statistics.median(vals) * scale if vals else 0.0
    hashed = [s for s in spans if s["name"] == "hash.fingerprint" and s["iter"] >= 0]
    cpu = sum(s["cpu"] for s in hashed)
    out["hash.fingerprint_gbps"] = sum(s["count"] for s in hashed) / cpu if cpu else 0.0
    dumps = per_iteration(spans, "core.Dumper.dump_output")
    probes = [per_iteration(spans, n, p) for n, p in PIPELINE_PROBES]
    cover = []
    for it, group in dumps.items():
        explained = sum(aggregate(p[it], "wall") for p in probes if it in p)
        cover.append(explained / aggregate(group, "wall"))
    out["trace.coverage_frac"] = statistics.median(cover) if cover else 0.0
    return out


def layer_table(spans, workload):
    """Per-layer split of the traced iterations' thread time: self time
    (span minus covered children), the busy part of it (thread CPU) and the
    rest (waiting), summed over threads and divided by the iteration count."""
    traced = [s for s in spans if s["iter"] >= 0]
    iters = len({s["iter"] for s in traced}) or 1
    rows = {"layer": defaultdict(lambda: [0, 0, 0]), "span": defaultdict(lambda: [0, 0, 0])}
    for s in traced:
        for kind, key in (("layer", s["name"].split(".")[0]), ("span", s["name"])):
            row = rows[kind][key]
            row[0] += s["self"]
            row[1] += min(s["cpu_self"], s["self"])
            row[2] += 1
    total = sum(r[0] for r in rows["layer"].values()) or 1
    lines = [f"per-layer host time, workload {workload}, {iters} traced iterations, "
             "thread-seconds per iteration"]
    for kind, width in (("layer", 8), ("span", 42)):
        lines.append(f"{kind:<{width}} {'self s':>12} {'share':>7} {'busy s':>11} "
                     f"{'wait s':>11} {'count':>8}")
        for name, (self_ns, cpu_ns, count) in sorted(rows[kind].items(),
                                                     key=lambda kv: -kv[1][0]):
            lines.append(f"{name:<{width}} {self_ns * 1e-9 / iters:>12.6f} "
                         f"{self_ns / total:>7.3f} {cpu_ns * 1e-9 / iters:>11.6f} "
                         f"{(self_ns - cpu_ns) * 1e-9 / iters:>11.6f} {count / iters:>8.1f}")
        lines.append("")
    return "\n".join(lines).rstrip()


def write_chrome_trace(spans, path, max_iters=2):
    """Chrome trace-event JSON: set-up spans and the first traced iterations."""
    first = sorted({s["iter"] for s in spans if s["iter"] >= 0})[:max_iters]
    keep = [s for s in spans if s["iter"] < 0 or s["iter"] in first]
    events = []
    for tid in sorted({s["rank"] for s in keep}):
        events.append({"ph": "M", "name": "thread_name", "pid": 1, "tid": tid + 1,
                       "args": {"name": "main" if tid < 0 else f"rank {tid}"}})
    for s in keep:
        events.append({"name": s["name"], "cat": s["name"].split(".")[0], "ph": "X",
                       "pid": 1, "tid": s["rank"] + 1, "ts": s["start"] / 1e3,
                       "dur": (s["end"] - s["start"]) / 1e3,
                       "args": {"iter": s["iter"], "self_us": s["self"] / 1e3,
                                "cpu_us": s["cpu"] / 1e3, "count": s["count"]}})
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


# ---- determinism ---------------------------------------------------------------------

def differences(a, b, what_a, what_b):
    """Keys present in both per-iteration records whose values differ."""
    return [f"iteration {i} {k}: {what_a} {x[k]!r} != {what_b} {y[k]!r}"
            for i, (x, y) in enumerate(zip(a, b)) for k in sorted(set(x) & set(y))
            if x[k] != y[k]]


def determinism_problems(result, key):
    """Sim-clock results and exact counts must repeat bit-for-bit: between
    the untraced and traced loops of this run, and against the digest an
    earlier run with the same seed and sources left under DIGESTS."""
    record = {"sim": result["untraced"]["sim"]}
    problems = []
    if "traced" in result:
        problems += differences(record["sim"], result["traced"]["sim"],
                                "untraced", "traced")
        layers = result["traced"]["layers"]
        record["comm"] = [{k: layers[k] for k in
                           ("simmpi.messages_per_dump", "simmpi.bytes_per_dump")}]
    path = DIGESTS / f"{key}.json"
    old = load_json(path) if path.is_file() else {}
    for part in record:
        problems += differences(old.get(part, []), record[part], "earlier run", "this run")
    if not problems:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**old, **record}))
    return problems


# ---- one benchmark invocation ----------------------------------------------------------

def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def failed_summary(problem):
    """The result line of a run that produced no measurement."""
    log("perfbench: FAILED: " + problem)
    summary = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    print(json.dumps(summary), flush=True)
    return summary


def bench(args, exe=None, tiny=False, inject="none"):
    """One benchmark invocation.  `tiny` (workloads.json sizes for the
    self-test) and `inject` (a fault the output checks must catch) are set
    only by self_test()."""
    config = load_json(HERE / "workloads.json")
    benchmark = load_json(ROOT / "BENCHMARK.json")
    if args.workload not in config["workloads"]:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}")
    spec = config["workloads"][args.workload]
    params = dict(spec["params"], **(spec["tiny"] if tiny else {}))
    setups = int(params.pop("setups"))
    exe = exe or build()

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tag += "-tiny" if tiny else ""
    tag += f"-{inject}" if inject != "none" else ""
    out = REPORTS / tag
    # Set-up is measured from process start, once per process: in a
    # long-lived process, later set-ups reuse warm allocator memory, and how
    # much they reuse varies from run to run.  The extra set-up processes
    # run half before and half after the measured run, so that a short
    # change in the host's speed moves only some of them.
    setup_cpu, setup_wall = [], []

    def time_setups(count):
        for _ in range(count):
            extra, problem = run_collbench(exe, dict(params, setup_only=1), args.seed,
                                           0, 0, "none", out / "setup")
            if extra is None:
                return problem
            if int(extra["untraced"]["failed"]):
                return "set-up: " + "; ".join(extra["untraced"]["failures"])
            setup_cpu.extend(extra["untraced"]["setup_cpu_s"])
            setup_wall.extend(extra["untraced"]["setup_wall_s"])
        return None

    problem = time_setups((setups - 1) // 2)
    if problem:
        return failed_summary(problem)
    # Set-up and, at --trace 1, the traced half run beside the measured
    # loop; keep the whole run inside the deadline.
    seconds = min(float(args.seconds), (DEADLINE_S - 30) / 1.5)
    result, problem = run_collbench(exe, params, args.seed, seconds,
                                    args.trace, inject, out)
    if result is None:
        return failed_summary(problem)
    setup_cpu.extend(result["untraced"]["setup_cpu_s"])
    setup_wall.extend(result["untraced"]["setup_wall_s"])
    problem = time_setups(setups - 1 - (setups - 1) // 2)
    if problem:
        return failed_summary(problem)

    phases = [result["untraced"]] + ([result["traced"]] if "traced" in result else [])
    attempted = sum(int(p["attempted"]) for p in phases)
    failed = sum(int(p["failed"]) for p in phases)
    problems = [f for p in phases for f in p["failures"]]

    digest_key = f"{source_digest()}/{args.workload}-{args.seed}"
    digest_key += "-tiny" if tiny else ""
    digest_key += f"-{inject}" if inject != "none" else ""
    nondet = determinism_problems(result, digest_key)
    if nondet:
        failed += 1
        attempted += 1
        log("perfbench: DETERMINISM FAILURE: sim-clock results or counts differ "
            "for the same seed:")
        for line in nondet[:20]:
            log("  " + line)
        problems += nondet

    e2e = {"setup_s": statistics.median(setup_cpu),
           "setup_wall_s": statistics.median(setup_wall),
           **result["untraced"]["e2e"]}
    if args.trace:
        layers = dict(result["traced"]["layers"])
        layers.update(result["traced_extra"])
        spans = load_spans(out / "spans.tsv")
        violations = annotate_self_times(spans)
        if violations:
            failed += 1
            attempted += 1
            problems += violations[:20]
        layers.update(span_metrics(spans))
        # Process CPU per dump, traced over untraced: wall times on this
        # kind of shared host spread too much to resolve the overhead.
        base = result["untraced"]["e2e"]["dump_cpu_s"]
        layers["trace.overhead_frac"] = \
            result["traced"]["e2e"]["dump_cpu_s"] / base - 1.0 if base else 0.0
        table = layer_table(spans, args.workload)
        (out / "layers.txt").write_text(table + "\n")
        write_chrome_trace(spans, out / "trace.json")
        wanted = benchmark["per_layer"]
        values = layers
    else:
        wanted = benchmark["end_to_end"]
        values = e2e

    metrics = {}
    for m in wanted:
        v = values.get(m["name"])
        if v is None or not math.isfinite(v):
            failed += 1
            attempted += 1
            problems.append(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}

    nproc = os.cpu_count() or 1
    sim0 = result["untraced"]["sim"][0] if result["untraced"]["sim"] else {}
    ranks = int(params["ranks"])
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}"
          f"{' tiny' if tiny else ''}: {ranks} ranks on {nproc} cores "
          f"({ranks / nproc:g} per core), "
          f"{int(sim0.get('total_dataset_bytes', 0)) // ranks} B per rank, "
          f"chunk {params['chunk_bytes']} B, K={spec['k']}, coll-dedup, "
          f"{'payload' if int(params['payload']) else 'accounting'} stores, "
          f"{int(result['untraced']['dumps'])} dumps in the untraced loop of "
          f"{seconds * (0.5 if args.trace else 1):g} s")
    units = dict(EXTRA_UNITS, **{m["name"]: m["unit"] for m in benchmark["end_to_end"]})
    for name, v in e2e.items():
        print(f"  {name} = {fmt(v)} {units.get(name, 's')}")
    print(f"  error_rate = {fmt(failed / attempted if attempted else 1.0)} "
          f"({failed} of {attempted} operations failed)")
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name} = {fmt(m['value'])} {m['unit']}")
        print(table)
        print(f"  report: {out.relative_to(ROOT)}/(trace.json, layers.txt, metrics.json)")
    for line in problems[:20]:
        log("perfbench: FAILED: " + line)

    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    print(json.dumps(summary), flush=True)
    return summary


# ---- self-test -----------------------------------------------------------------------

def self_test():
    """Tiny runs of every workload asserting the benchmark's own contract."""
    import contextlib
    import io

    exe = build()
    benchmark = load_json(ROOT / "BENCHMARK.json")
    config = load_json(HERE / "workloads.json")
    names = list(config["workloads"])
    held_out = int(config["seeds"]["held_out"])
    failures = []

    def run(workload, seed, trace, inject="none"):
        args = argparse.Namespace(workload=workload, seed=seed, seconds=1.0,
                                  trace=trace)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            summary = bench(args, exe, tiny=True, inject=inject)
        return summary, buf.getvalue()

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    expect([w["name"] for w in benchmark["workloads"]] == names,
           "BENCHMARK.json lists the workloads of workloads.json")
    unmapped = [m["name"] for m in benchmark["per_layer"]
                if m["name"] not in config["per_layer_moves"]]
    expect(not unmapped, f"every per-layer metric names what it should move {unmapped or ''}")
    for w in names:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            summary, text = run(w, 7, trace)
            expect(summary["correct"] and summary["failed"] == 0,
                   f"{w} trace={trace}: every output check passes")
            missing = [m["name"] for m in benchmark[key]
                       if summary["metrics"].get(m["name"], {}).get("unit") != m["unit"]
                       or f"  {m['name']} = " not in text]
            expect(not missing, f"{w} trace={trace}: every {key} metric printed with "
                   f"its unit {missing or ''}")
        # Spans: a fresh load of the traced run's spans obeys the self-time rules.
        spans = load_spans(REPORTS / f"{w}-seed7-trace1-tiny" / "spans.tsv")
        bad = annotate_self_times(spans)
        by_id = {s["id"]: s for s in spans}
        expect(not bad and all(0 <= s["self"] and 0 <= s["cpu_self"] and
                               (s["parent"] == 0 or s["self"] <=
                                by_id[s["parent"]]["end"] - by_id[s["parent"]]["start"])
                               for s in spans),
               f"{w}: spans nest, and self times are never negative and never "
               "exceed the parent")
        summary, _ = run(w, 7, 0)
        expect(summary["correct"], f"{w}: a rerun with the same seed is bit-identical")
        digest = DIGESTS / source_digest() / f"{w}-7-tiny.json"
        record = load_json(digest)
        record["sim"][0]["dump_sim_s"] *= 1 + 2 ** -40
        digest.write_text(json.dumps(record))
        summary, _ = run(w, 7, 0)
        digest.unlink()
        expect(not summary["correct"] and summary["failed"] > 0,
               f"{w}: a sim result differing in the last bits fails the run")
        summary, _ = run(w, held_out, 0)
        expect(summary["correct"], f"{w}: the held-out seed passes every output check")
        summary, _ = run(w, 7, 0, inject="drop-replica")
        expect(summary["failed"] > 0, f"{w}: a dropped replica makes error_rate nonzero")
    # Hand-built spans: a child ending after its parent, and a child using
    # more thread CPU than its parent, must both be reported.
    path = REPORTS / "self-test-spans.tsv"
    path.write_text("1099511627777\t0\tbench.iteration\t-1\t0\t0\t100\t50\t0\n"
                    "1099511627778\t1099511627777\tcore.collect\t-1\t0\t10\t120\t20\t0\n"
                    "1099511627779\t1099511627777\tcore.plan\t-1\t0\t20\t30\t40\t0\n")
    bad = annotate_self_times(load_spans(path))
    expect(any("core.collect" in v and "not nested" in v for v in bad) and
           any(v.startswith("bench.iteration") and "more CPU" in v for v in bad),
           "span checks catch a child outside its parent and one using more CPU")
    summary, _ = run("restart", 7, 0, inject="corrupt")
    expect(summary["failed"] > 0, "restart: a corrupted restored byte makes error_rate nonzero")
    print(f"self-test: {len(failures)} failure(s)")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")
    return 0 if bench(args)["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
