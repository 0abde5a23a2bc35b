#!/usr/bin/env python3
"""The TPot benchmark: one command that runs a named workload with a seed.

    python3 perfbench/run.py --workload ci-seq|ci-par|edit-loop --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run it from the root of the repository. It builds `perfbench/` (a Cargo
package of its own) into `$CARGO_TARGET_DIR`, default `.bench_build`, then
starts one fresh process per measured run with every `TPOT_*` variable
cleared, so no runtime knob or stray cache directory changes the work.

`--trace 0` makes the workload's untraced runs (three or more for ci-par,
one otherwise) and prints the end-to-end metrics, each the median over the
runs.
`--trace 1` makes one untraced run and one run with spans collected in
memory, and prints the per-layer metrics: the per-module ledger of the
traced run, its overhead over the untraced run, and whether the engine and
SAT counts repeated in both. Spans are written to
`perfbench/out/spans-<workload>-<seed>.jsonl`, and each run's raw
`tpot-bench/v1` report to `perfbench/out/report-<workload>-<seed>-*.json`.

Every verdict is checked against the hand-written expected table in
`perfbench/src/plan.rs`. The last line of output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`; the lines above it give
every metric with its unit and sample count, and every ratio with its base.
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

PKG = "perfbench"
OUT = os.path.join(PKG, "out")
DEADLINE_S = 170  # every invocation after the build ends within 180 s

WORKLOADS = {
    "ci-seq": "Table 5's CI run at jobs=1 with a fresh in-memory cache: solver "
    "work dominates, and no cache reuse or scheduling is involved",
    "ci-par": "spec__alloc_page at jobs=2, median of three processes: the one pool "
    "POT whose paths keep both workers busy, so engine::sched steals and migrates",
    "edit-loop": "one client editing against an in-process tpotd: compile, "
    "cone digests, POT-table probes, query-cache replays and cache flushes",
}

# A ci-par run takes about this long: spec__alloc_page at jobs=2.
PAR_RUN_S = 9


def runs(workload, seconds):
    """Untraced runs per invocation. How much of spec__alloc_page the second
    path worker takes changes from process to process, and now and then a
    process takes twice as long, so ci-par reports the median of at least
    three."""
    return max(3, seconds // PAR_RUN_S) if workload == "ci-par" else 1

# End-to-end metrics: (name, unit, better, what it is).
END_TO_END = [
    ("wall_s", "s", "lower", "wall time of the timed phase"),
    ("cpu_s", "s", "lower", "user+sys CPU of the process over the timed phase"),
    ("setup_s", "s", "lower", "median set-up pass: compile and lower the drawn "
     "targets (ci), restart tpotd on the prefilled cache until /v1/status "
     "answers (edit-loop)"),
    ("peak_rss_mb", "MB", "lower", "VmHWM of the run's process"),
]

# Per-layer metrics: (name, unit, better, the end-to-end metric and workload
# it should move, the base of a ratio). Rows marked in LEDGER sum, with
# bench.unattributed_ms, to bench.traced_wall_ms.
PER_LAYER = [
    ("cfront.compile_ms", "ms", "lower", "setup_s on ci-*; wall_s on edit-loop", None),
    ("ir.lower_ms", "ms", "lower", "setup_s on ci-*; wall_s on edit-loop", None),
    ("ir.digest_ms", "ms", "lower", "wall_s on edit-loop (inside daemon.self_ms)", None),
    ("engine.verify_ms", "ms", "lower", "wall_s on ci-seq; edit-loop replays", None),
    ("engine.interp_ms", "ms", "lower", "wall_s on ci-seq; edit-loop replays", None),
    ("engine.queries", "count", "lower", "wall_s on ci-seq", None),
    ("engine.paths", "count", "lower", "wall_s on ci-seq", None),
    ("engine.insts", "count", "lower", "wall_s on ci-seq", None),
    ("smt.serialize_ms", "ms", "lower", "wall_s on edit-loop; a small share on ci-seq", None),
    ("smt.slice_ms", "ms", "lower", "wall_s on ci-seq (slicing is off by default)", None),
    ("portfolio.race_ms", "ms", "lower", "wall_s on ci-seq (racing is off by default)", None),
    ("portfolio.cache_hit_ratio", "ratio", "higher", "wall_s on edit-loop and ci-seq",
     "engine.queries"),
    ("portfolio.session_hit_ratio", "ratio", "higher", "wall_s on ci-seq",
     "solver.session lookups"),
    ("solver.query_ms", "ms", "lower", "wall_s, cpu_s on ci-seq, ci-par", None),
    ("solver.preprocess_ms", "ms", "lower", "wall_s, cpu_s on ci-seq, ci-par", None),
    ("solver.bitblast_ms", "ms", "lower", "wall_s, cpu_s on ci-seq, ci-par", None),
    ("solver.dpllt_ms", "ms", "lower", "wall_s, cpu_s on ci-seq, ci-par", None),
    ("solver.lia_ms", "ms", "lower", "wall_s, cpu_s on ci-seq, ci-par", None),
    ("solver.lia_calls", "count", "lower", "wall_s, cpu_s on ci-seq, ci-par", None),
    ("solver.lia_calls_per_query", "ratio", "lower", "wall_s on ci-seq, ci-par",
     "engine.queries"),
    ("sat.solves", "count", "lower", "wall_s on ci-seq, ci-par", None),
    ("sat.conflicts", "count", "lower", "wall_s on ci-seq, ci-par", None),
    ("sat.decisions", "count", "lower", "wall_s on ci-seq, ci-par", None),
    ("sat.propagations", "count", "lower", "wall_s on ci-seq, ci-par", None),
    ("sat.solves_per_query", "ratio", "lower", "wall_s on ci-seq, ci-par",
     "engine.queries"),
    ("sched.steals", "count", "lower", "wall_s, cpu_s on ci-par (0 at jobs=1)", None),
    ("sched.migrations", "count", "lower", "wall_s, cpu_s on ci-par (0 at jobs=1)", None),
    ("sched.idle_ms", "ms", "lower", "wall_s, cpu_s on ci-par", None),
    ("sched.steal_ms", "ms", "lower", "wall_s on ci-par", None),
    ("proofcache.load_ms", "ms", "lower", "setup_s on edit-loop", None),
    ("proofcache.flush_ms", "ms", "lower", "wall_s on edit-loop", None),
    ("proofcache.file_kb", "KiB", "lower", "setup_s, wall_s on edit-loop", None),
    ("daemon.service_ms", "ms", "lower", "wall_s on edit-loop", None),
    ("daemon.self_ms", "ms", "lower", "wall_s on edit-loop", None),
    ("daemon.cached_share", "ratio", "higher", "wall_s on edit-loop",
     "POT outcomes answered"),
    ("daemon.replayed_share", "ratio", "higher", "wall_s on edit-loop",
     "POT outcomes answered"),
    ("daemon.solved_share", "ratio", "lower", "wall_s on edit-loop",
     "POT outcomes answered"),
    ("api.overhead_ms", "ms", "lower", "wall_s on edit-loop", None),
    ("bench.unattributed_ms", "ms", "lower", "none: an honesty check", None),
    ("bench.traced_wall_ms", "ms", "lower", "none: the ledger's total", None),
    ("bench.trace_overhead", "ratio", "lower", "none: an honesty check",
     "untraced wall_s of the same seed"),
    ("bench.counts_repeat", "ratio", "higher", "none: an honesty check",
     "units (drawn POTs, or requests that ran the engine)"),
    ("bench.fail_share", "ratio", "lower", "none: an honesty check",
     "attempts (verdicts, or requests)"),
    ("obs.events_dropped", "count", "lower", "none: must be 0", None),
]

LEDGER = [
    "cfront.compile_ms", "ir.lower_ms", "engine.interp_ms", "smt.serialize_ms",
    "smt.slice_ms", "portfolio.race_ms", "solver.query_ms",
    "solver.preprocess_ms", "solver.bitblast_ms", "solver.dpllt_ms",
    "solver.lia_ms", "sched.idle_ms", "sched.steal_ms", "daemon.self_ms",
    "api.overhead_ms", "bench.unattributed_ms",
]

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def log(*parts):
    print(*parts, flush=True)


def build():
    """Builds the benchmark binary and returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(PKG, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        sys.exit(f"perfbench: building {PKG} failed (exit {r.returncode})")
    return os.path.join(target, "release", "perfbench")


def child_env():
    """The environment of a measured run: this one without any TPOT_*."""
    return {k: v for k, v in os.environ.items() if not k.startswith("TPOT_")}


def run_once(binary, workload, seed, seconds, deadline, trace_path=None, tag=""):
    """One measured run in a fresh process; returns its parsed report."""
    cmd = [binary, "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--work", OUT]
    if trace_path:
        cmd += ["--trace", trace_path]
    left = deadline - time.monotonic()
    if left <= 0:
        sys.exit("perfbench: out of time before a run could start")
    try:
        r = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True, timeout=left)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {workload} run exceeded the time limit")
    finally:
        for d in os.listdir(OUT):
            if d.startswith("edit-loop-cache-"):
                shutil.rmtree(os.path.join(OUT, d), ignore_errors=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.exit(f"perfbench: {workload} run failed (exit {r.returncode})")
    report = json.loads(lines[-1])
    if report.get("schema") != "tpot-bench/v1":
        sys.exit("perfbench: the run did not print a tpot-bench/v1 report")
    kind = "traced" if trace_path else "untraced"
    with open(os.path.join(OUT, f"report-{workload}-{seed}-{kind}{tag}.json"), "w") as f:
        f.write(lines[-1] + "\n")
    return report


def percentile(xs, p):
    """Nearest-rank percentile `p` of `xs` and the number of samples beyond
    it, or None when fewer than ten lie beyond it."""
    v = sorted(xs)
    if not v:
        return None
    rank = max(1, math.ceil(p * len(v)))
    beyond = len(v) - rank
    return (v[rank - 1], beyond) if beyond >= 10 else None


def counts_repeat(reports):
    """Share of units (POTs, or engine requests) whose engine and SAT counts
    were identical in every run, with the number of units."""
    names = set()
    for r in reports:
        names.update(t["name"] for t in r["targets"])
    same = 0
    for n in names:
        seen = [next((t["counts"] for t in r["targets"] if t["name"] == n), None)
                for r in reports]
        if all(s is not None and s == seen[0] for s in seen):
            same += 1
    return (same / len(names) if names else 1.0), same, len(names)


def source_identity():
    """The commit, when this is a git checkout, and a digest of the sources
    the benchmark builds (the checkout the benchmark runs in has no .git)."""
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    h = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "shims", "targets", PKG]:
        for dirpath, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d not in ("out", "target"))
            for f in sorted(files):
                p = os.path.join(dirpath, f)
                h.update(p.encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
        if os.path.isfile(top):
            with open(top, "rb") as fh:
                h.update(fh.read())
    return commit, h.hexdigest()[:16]


def header(args, report):
    meta = report["meta"]
    commit, digest = source_identity()
    log(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
        f"jobs={int(meta['jobs'])} nproc={int(meta['nproc'])} commit={commit} "
        f"sources={digest}")
    log(f"  why: {WORKLOADS[args.workload]}")
    log(f"  engine config: {meta['engine_config']}")
    log(f"  obs config: {meta['obs_config']}")
    for k in ("draw", "edit_set"):
        if k in meta:
            log(f"  {k}: {', '.join(meta[k])}")


def show_failures(reports):
    for r in reports:
        for f in r["summary"]["failures"]:
            log(f"  FAIL {f}")
        for f in r["summary"]["integrity"]:
            log(f"  BROKEN {f}")


def untraced(args, binary, deadline):
    n = runs(args.workload, args.seconds)
    reps = [run_once(binary, args.workload, args.seed, args.seconds, deadline,
                     tag="" if n == 1 else f"-{i + 1}") for i in range(n)]
    header(args, reps[0])
    s = reps[0]["summary"]
    setups = [x for r in reps for x in r["summary"]["setup_s"]]
    values = {"setup_s": statistics.median(setups)}
    for k in ("wall_s", "cpu_s", "peak_rss_mb"):
        values[k] = statistics.median(r["summary"][k] for r in reps)
        if n > 1:
            log(f"  {k} of each run: {[r['summary'][k] for r in reps]}")
    per = "n=1 timed phase" if n == 1 else f"median of n={n} runs"
    samples = {"wall_s": per, "cpu_s": per,
               "setup_s": f"median of n={len(setups)} set-up passes",
               "peak_rss_mb": "n=1 process" if n == 1 else f"median of n={n} processes"}
    for name, unit, _, what in END_TO_END:
        log(f"  {name:<14} {values[name]!r:>22} {unit:<5} ({samples[name]}; {what})")
    attempted = sum(int(r["summary"]["attempted"]) for r in reps)
    failed = sum(len(r["summary"]["failures"]) for r in reps)
    log(f"  {'fail_share':<14} {failed / attempted if attempted else 0.0!r:>22} ratio "
        f"({failed}/{attempted}; base: {'requests' if s['latencies_ms'] else 'verdicts'})")
    lat = s["latencies_ms"]
    for name, p in (("req_p50_ms", 0.5), ("req_p90_ms", 0.9)):
        if lat:
            q = percentile(lat, p)
            if q is None:
                log(f"  {name:<14} {'(not printed)':>22} ms    (n={len(lat)}: fewer "
                    "than ten samples beyond it)")
            else:
                log(f"  {name:<14} {q[0]!r:>22} ms    (n={len(lat)}, {q[1]} beyond; "
                    "client-side, send to full response)")
    show_failures(reps)
    correct = all(not r["summary"]["failures"] and not r["summary"]["integrity"]
                  for r in reps)
    metrics = {n: {"value": values[n], "unit": u} for n, u, _, _ in END_TO_END}
    return correct, attempted, failed, metrics


def traced(args, binary, deadline):
    # One untraced run beside the traced one keeps the invocation inside its
    # time limit on the longest workload.
    plain = run_once(binary, args.workload, args.seed, args.seconds, deadline)
    spans = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl")
    trep = run_once(binary, args.workload, args.seed, args.seconds, deadline, spans)
    everyone = [plain, trep]
    header(args, trep)
    layers = dict(trep["summary"]["layers"])
    bases = dict(trep["summary"]["bases"])
    traced_wall, plain_wall = trep["summary"]["wall_s"], plain["summary"]["wall_s"]
    layers["bench.trace_overhead"] = traced_wall / plain_wall
    bases["bench.trace_overhead"] = {"num": traced_wall, "den": plain_wall,
                                     "base": "untraced wall_s (s)"}
    share, same, units = counts_repeat(everyone)
    layers["bench.counts_repeat"] = share
    bases["bench.counts_repeat"] = {"num": same, "den": units,
                                    "base": f"units over {len(everyone)} runs"}
    attempted = sum(int(r["summary"]["attempted"]) for r in everyone)
    failed = sum(len(r["summary"]["failures"]) for r in everyone)
    layers["bench.fail_share"] = failed / attempted if attempted else 0.0
    bases["bench.fail_share"] = {"num": failed, "den": attempted,
                                 "base": f"attempts over {len(everyone)} runs"}
    metrics = {}
    for name, unit, _, moves, _ in PER_LAYER:
        v = layers.get(name, 0.0)
        metrics[name] = {"value": v, "unit": unit}
        b = bases.get(name)
        base = f"; {b['num']!r}/{b['den']!r}, base: {b['base']}" if b else ""
        tag = " [ledger]" if name in LEDGER else ""
        log(f"  {name:<28} {v!r:>22} {unit:<5}{tag} (should move: {moves}{base})")
    ledger_sum = sum(layers.get(r, 0.0) for r in LEDGER)
    log(f"  ledger: rows sum to {ledger_sum!r} ms; traced wall {layers.get('bench.traced_wall_ms', 0.0)!r} ms")
    log(f"  spans: {spans}")
    show_failures(everyone)
    correct = all(not r["summary"]["failures"] and not r["summary"]["integrity"]
                  for r in everyone)
    return correct, attempted, failed, metrics


def self_test(binary):
    """Checks the metric rules and the expected table; returns problems."""
    problems = []
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    want_e2e = [(n, u, b) for n, u, b, _ in END_TO_END]
    got_e2e = [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]]
    if got_e2e != want_e2e:
        problems.append(f"BENCHMARK.json end_to_end {got_e2e} != printed {want_e2e}")
    want_pl = [(n, u, b) for n, u, b, _, _ in PER_LAYER]
    got_pl = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    if got_pl != want_pl:
        problems.append("BENCHMARK.json per_layer does not match the printed metrics")
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads do not match the runnable ones")
    for n in [m["name"] for m in bench["end_to_end"] + bench["per_layer"]] + list(WORKLOADS):
        if not NAME_RE.match(n):
            problems.append(f"name {n!r} has characters outside [A-Za-z0-9_.-]")
    for n, u, _, _, base in PER_LAYER:
        if u == "ratio" and not base:
            problems.append(f"ratio {n} has no base")
    if any(n not in {p[0] for p in PER_LAYER} for n in LEDGER):
        problems.append("a ledger row is not a per-layer metric")
    # Percentiles: printed only with ten samples beyond them.
    if percentile(list(range(100)), 0.9) != (89, 10):
        problems.append("p90 of 100 samples must be printed with 10 beyond")
    if percentile(list(range(99)), 0.9) is not None:
        problems.append("p90 of 99 samples has 9 beyond and must not be printed")
    if percentile(list(range(20)), 0.5) != (9, 10):
        problems.append("p50 of 20 samples must be printed with 10 beyond")
    r = subprocess.run([binary, "selftest"], env=child_env())
    if r.returncode != 0:
        problems.append("perfbench selftest failed")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    if not (0 <= args.seed < 2**64) or args.seconds < 1:
        ap.error("--seed must fit in 64 bits and --seconds be at least 1")
    binary = build()
    if args.self_test:
        problems = self_test(binary)
        for p in problems:
            log(f"self-test: {p}")
        log("self-test: " + ("FAILED" if problems else "ok"))
        sys.exit(1 if problems else 0)
    os.makedirs(OUT, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    run = traced if args.trace else untraced
    correct, attempted, failed, metrics = run(args, binary, deadline)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)


if __name__ == "__main__":
    main()
