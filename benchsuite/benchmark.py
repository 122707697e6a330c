#!/usr/bin/env python3
"""The repository benchmark: builds bench_suite, runs one workload, turns
its raw samples into the metrics named in BENCHMARK.json, checks that the
trained models are correct, and compares saved results.

  python3 benchsuite/benchmark.py run --workload gmm-fit --seed 1 \\
      --seconds 20 --trace 0 [--save result.json]
  python3 benchsuite/benchmark.py compare --base a*.json --new b*.json

`run` prints a human summary, then as its last stdout line one JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Stdlib only.
"""

import argparse
import collections
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "benchsuite")
STRATEGIES = "MSF"
SUITE_TIMEOUT_S = 170

# Correctness contract (see README.md).
DEFAULT_SEED = 1
OBJECTIVE_REL_TOL = 1e-6
PARAM_DIFF_TOL = 1e-4
# Final objective of every strategy at DEFAULT_SEED. A change that moves one
# by more than OBJECTIVE_REL_TOL changed what the models learn.
PINNED_OBJECTIVE = {
    "gmm-fit": -10704681.905241579,
    "linreg-spill": 0.30467673427007047,
    "nn-epochs": 0.1533652734015853,
    "kmeans-shards": 24164117.527229127,
}

# Which end-to-end metrics each per-layer metric should move, on which
# workloads, and where it should not move. Keyed by the metric name without
# its strategy suffix.
ALL_TRAIN = ["train_s.M", "train_s.S", "train_s.F"]
ALL_CPU = ["cpu_s.M", "cpu_s.S", "cpu_s.F"]
LAYER_MOVES = {
    "la.mults": (ALL_TRAIN + ALL_CPU, ["gmm-fit"], []),
    "la.adds": (ALL_TRAIN + ALL_CPU, ["gmm-fit"], []),
    "la.exps": (ALL_TRAIN + ALL_CPU, ["gmm-fit", "nn-epochs"], []),
    "storage.pages_read": (["train_s.M", "train_s.S"], ["linreg-spill"],
                           ["gmm-fit"]),
    "storage.pages_written": (["train_s.M"], ["linreg-spill"], ["gmm-fit"]),
    "storage.pool_hit_rate": (["train_s.M", "train_s.S"], ["linreg-spill"],
                              ["gmm-fit"]),
    "storage.stall_s": (["train_s.M"], ["linreg-spill"], ["gmm-fit"]),
    "storage.io_self_s": (["train_s.M"], ["linreg-spill"], ["gmm-fit"]),
    "storage.scan_rows_s": (["train_s.M", "train_s.S"], ["linreg-spill"],
                            ["nn-epochs"]),
    "storage.scan_strips_s": (["train_s.M"], ["gmm-fit"], ["linreg-spill"]),
    "join.materialize_s": (["train_s.M"], ["linreg-spill", "kmeans-shards"],
                           []),
    "join.index_s": (["setup_s"], ["linreg-spill", "kmeans-shards"], []),
    "join.view_load_s": (["train_s.S", "train_s.F"], ["linreg-spill"], []),
    "join.assemble_s": (["train_s.S"], ["linreg-spill", "nn-epochs"], []),
    "exec.chunks": (ALL_TRAIN, ["linreg-spill"], ["gmm-fit", "nn-epochs"]),
    "exec.steals": (ALL_TRAIN, ["linreg-spill"], ["gmm-fit", "nn-epochs",
                                                 "kmeans-shards"]),
    "model.self_s": (ALL_TRAIN + ALL_CPU, ["gmm-fit", "nn-epochs"], []),
    "pipeline.self_s": (ALL_TRAIN, ["kmeans-shards"], ["gmm-fit"]),
    "pipeline.slot_bytes": (["peak_rss_mb"], ["linreg-spill",
                                              "kmeans-shards"], ["nn-epochs"]),
    "pipeline.delta_bytes": (ALL_TRAIN + ALL_CPU, ["kmeans-shards"],
                             ["gmm-fit", "linreg-spill", "nn-epochs"]),
    "bench.unattributed_s": ([], [], []),
    "obs.trace_overhead_frac": ([], [], []),
    "obs.trace_events": ([], [], []),
    "obs.trace_dropped": ([], [], []),
}

# Trace category -> the per-layer self-time metric it feeds. Spans of a
# category not listed here count as unattributed.
LAYER_OF_CATEGORY = {
    "storage": "storage.io_self_s",
    "pipeline": "pipeline.self_s",
    "rpc": "pipeline.self_s",
    "phase": "model.self_s",
    "exec": "model.self_s",
    "morsel": "model.self_s",
}
UNATTRIBUTED = "bench.unattributed_s"

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


# ------------------------------------------------------------ statistics

def quartiles(values):
    """(p25, median, p75) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q = statistics.quantiles(values, n=4)
    return (q[0], q[1], q[2])


def tail_percentile(values):
    """The highest percentile with at least ten samples beyond it, as
    (percent, value) by nearest rank, or None below eleven samples."""
    n = len(values)
    if n < 11:
        return None
    return (math.floor(100 * (n - 10) / n), sorted(values)[n - 11])


def spread(values):
    """Interquartile distance as a share of the median."""
    p25, med, p75 = quartiles(values)
    return (p75 - p25) / abs(med) if med else 0.0


def summarize(values):
    p25, med, p75 = quartiles(values)
    return {"n": len(values), "p25": p25, "median": med, "p75": p75,
            "tail": tail_percentile(values)}


# ----------------------------------------------------------------- trace

def self_times(events):
    """[(event, self_us)] for every complete ("X") span: its duration minus
    the durations of the spans directly nested in it on the same tid."""
    by_tid = collections.defaultdict(list)
    for i, e in enumerate(events):
        if e.get("ph") == "X":
            by_tid[e["tid"]].append((i, e))
    out = []
    for spans in by_tid.values():
        # Parents first: earlier start, then longer, then emitted later (a
        # span is emitted when it closes, after everything inside it).
        spans.sort(key=lambda p: (p[1]["ts"], -p[1]["dur"], -p[0]))
        stack = []  # [event, summed child durations]
        for _, e in spans:
            while stack and e["ts"] >= stack[-1][0]["ts"] + stack[-1][0]["dur"]:
                top, child = stack.pop()
                out.append((top, max(0, top["dur"] - child)))
            if stack:
                stack[-1][1] += e["dur"]
            stack.append([e, 0])
        while stack:
            top, child = stack.pop()
            out.append((top, max(0, top["dur"] - child)))
    return out


def layer_self_seconds(events):
    """{strategy: {layer metric: seconds}}: self time summed over threads,
    attributed to the bench.train span (one per strategy) it falls in."""
    windows = []
    for e in events:
        if e.get("ph") == "X" and e["name"] == "bench.train":
            strategy = STRATEGIES[e["args"]["strategy"]]
            windows.append((e["ts"], e["ts"] + e["dur"], strategy))
    out = {s: collections.defaultdict(float) for s in STRATEGIES}
    for e, self_us in self_times(events):
        for begin, end, strategy in windows:
            if begin <= e["ts"] <= end:
                layer = LAYER_OF_CATEGORY.get(e["cat"], UNATTRIBUTED)
                out[strategy][layer] += self_us * 1e-6
                break
    return out


# ----------------------------------------------------------- correctness

def close(a, b, rel):
    return a is not None and b is not None and abs(a - b) <= rel * max(
        abs(a), abs(b))


def check(doc):
    """(failed run indices, reasons). A run fails on a non-OK status, on
    an objective or op count that differs from the other reps of its
    strategy, on M/S/F objectives that disagree, on an M/F parameter
    drift, on a pinned objective that moved, or on dropped trace events."""
    runs = doc["runs"]
    failed, reasons = set(), []

    def fail(indices, why):
        indices = [i for i in indices if i not in failed]
        if indices:
            failed.update(indices)
            reasons.append("%s (%d runs)" % (why, len(indices)))

    fail([i for i, r in enumerate(runs) if not r["ok"]], "non-OK status")
    objective = {}
    for s in STRATEGIES:
        idx = [i for i, r in enumerate(runs) if r["strategy"] == s and r["ok"]]
        if not idx:
            continue
        sig = {i: tuple(runs[i][k] for k in
                        ("objective", "mults", "adds", "subs", "exps"))
               for i in idx}
        ref = collections.Counter(sig.values()).most_common(1)[0][0]
        fail([i for i in idx if sig[i] != ref],
             "%s: objective or op counts differ across reps" % s)
        objective[s] = ref[0]
    for s in "SF":
        if s in objective and not close(objective[s], objective.get("M"),
                                        OBJECTIVE_REL_TOL):
            fail([i for i, r in enumerate(runs) if r["strategy"] == s],
                 "%s objective %r disagrees with M" % (s, objective[s]))
    for d in doc["mf_param_diff"]:
        if d["diff"] is None or d["diff"] > PARAM_DIFF_TOL:
            fail([i for i, r in enumerate(runs)
                  if r["strategy"] == "F" and r["phase"] == d["phase"]
                  and r["round"] == d["round"]],
                 "M/F parameter drift %r" % d["diff"])
    pinned = PINNED_OBJECTIVE.get(doc["workload"])
    if doc["seed"] == DEFAULT_SEED and pinned is not None:
        for s, obj in objective.items():
            if not close(obj, pinned, OBJECTIVE_REL_TOL):
                fail([i for i, r in enumerate(runs) if r["strategy"] == s],
                     "%s objective %r != pinned %r" % (s, obj, pinned))
    trace = doc.get("trace")
    if trace and trace["dropped"] > 0:
        fail([i for i, r in enumerate(runs) if r["phase"] == "traced"],
             "trace dropped %d events" % trace["dropped"])
    return failed, reasons


# --------------------------------------------------------------- metrics

def timed_runs(doc, strategy):
    runs = [r for r in doc["runs"]
            if r["phase"] == "timed" and r["strategy"] == strategy]
    ok = [r for r in runs if r["ok"]]
    return ok or runs


def samples(doc):
    """Raw per-rep samples behind the end-to-end metrics."""
    out = {}
    for s in STRATEGIES:
        runs = timed_runs(doc, s)
        out["train_s." + s] = [r["wall_s"] for r in runs]
        out["cpu_s." + s] = [r["cpu_s"] for r in runs]
    out["setup_s"] = list(doc["setup_s"])
    out["peak_rss_mb"] = [doc["peak_rss_kb"] / 1024.0]
    return out


def end_to_end(doc):
    """Timings are the minimum over reps (interference on a shared host
    only ever slows a run); set-up time is the median of its samples."""
    raw = samples(doc)
    out = {name: min(values) for name, values in raw.items()}
    out["setup_s"] = statistics.median(raw["setup_s"])
    return out


def metric_of(run, name):
    return run["metrics"].get(name, 0)


def per_layer(doc, events):
    out = {}
    layers = layer_self_seconds(events) if events else None
    traced = {r["strategy"]: r for r in doc["runs"] if r["phase"] == "traced"}
    for s in STRATEGIES:
        runs = timed_runs(doc, s)
        first = runs[0]
        out["la.mults." + s] = first["mults"]
        out["la.adds." + s] = first["adds"]
        out["la.exps." + s] = first["exps"]
        out["storage.pages_read." + s] = first["pages_read"]
        lookups = first["pool_hits"] + first["pool_misses"]
        out["storage.pool_hit_rate." + s] = (
            first["pool_hits"] / lookups if lookups else 0.0)
        out["storage.stall_s." + s] = statistics.median(
            r["stall_s"] for r in runs)
        out["exec.chunks." + s] = metric_of(first, "exec.chunks")
        # Which worker takes a chunk depends on timing, so steals vary.
        out["exec.steals." + s] = statistics.median(
            metric_of(r, "exec.chunks_stolen") for r in runs)
        out["pipeline.slot_bytes." + s] = metric_of(first, "pipeline.slot_bytes")
        out["pipeline.delta_bytes." + s] = metric_of(first,
                                                     "pipeline.delta_bytes")
        if layers is not None:
            for name in ("storage.io_self_s", "model.self_s",
                         "pipeline.self_s", UNATTRIBUTED):
                out[name + "." + s] = layers[s][name]
        if s in traced:
            best = min(r["wall_s"] for r in runs)
            out["obs.trace_overhead_frac." + s] = traced[s]["wall_s"] / best - 1
    out["storage.pages_written.M"] = timed_runs(doc, "M")[0]["pages_written"]
    out["join.materialize_s.M"] = statistics.median(
        r["materialize_s"] for r in timed_runs(doc, "M"))
    out.update(doc["probes"])
    if doc.get("trace"):
        out["obs.trace_events"] = doc["trace"]["events"]
        out["obs.trace_dropped"] = doc["trace"]["dropped"]
    return out


# ---------------------------------------------------------------- spec

def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def validate_spec(spec):
    """Errors (strings) in a BENCHMARK.json document and in LAYER_MOVES."""
    errors = []

    def expect(cond, msg):
        if not cond:
            errors.append(msg)

    top = {"command", "paths", "run_seconds", "workloads", "end_to_end",
           "per_layer"}
    expect(set(spec) == top, "top-level keys must be %s" % sorted(top))
    cmd = spec.get("command", [])
    expect(isinstance(cmd, list) and 1 <= len(cmd) <= 32 and
           all(isinstance(c, str) and len(c) <= 200 for c in cmd),
           "command must be 1-32 strings of <= 200 chars")
    paths = spec.get("paths", [])
    expect(isinstance(paths, list) and 1 <= len(paths) <= 16,
           "paths must list 1-16 directories")
    for p in paths:
        expect(isinstance(p, str) and PATH_RE.match(p) and
               not p.startswith("/") and ".." not in p.split("/"),
               "bad path %r" % p)
    rs = spec.get("run_seconds")
    expect(isinstance(rs, int) and not isinstance(rs, bool) and 1 <= rs <= 60,
           "run_seconds must be a whole number in 1..60")
    names = []
    workloads = spec.get("workloads", [])
    expect(2 <= len(workloads) <= 8, "need 2-8 workloads")
    for w in workloads:
        expect(set(w) == {"name", "why"}, "workload keys must be name, why")
        why = w.get("why", "")
        expect(isinstance(why, str) and 0 < len(why) <= 200 and "\n" not in why,
               "workload %r: why must be one line of <= 200 chars"
               % w.get("name"))
        names.append(w.get("name"))
    e2e = spec.get("end_to_end", [])
    expect(1 <= len(e2e) <= 16, "need 1-16 end-to-end metrics")
    for m in e2e:
        expect(set(m) == {"name", "unit", "better", "bound"},
               "end-to-end keys must be name, unit, better, bound")
        b = m.get("bound")
        expect(isinstance(b, (int, float)) and 0 < b <= 0.25,
               "%r: bound must be in (0, 0.25]" % m.get("name"))
        names.append(m.get("name"))
    setup = [m for m in e2e if m.get("name") == "setup_s"]
    expect(len(setup) == 1 and setup[0].get("unit") == "s" and
           setup[0].get("better") == "lower",
           "setup_s must be an end-to-end metric in s, lower is better")
    layer = spec.get("per_layer", [])
    expect(1 <= len(layer) <= 128, "need 1-128 per-layer metrics")
    for m in layer:
        expect(set(m) == {"name", "unit", "better"},
               "per-layer keys must be name, unit, better")
        names.append(m.get("name"))
    for m in e2e + layer:
        expect(m.get("better") in ("lower", "higher"),
               "%r: better must be lower or higher" % m.get("name"))
        expect(isinstance(m.get("unit"), str) and UNIT_RE.match(m["unit"]),
               "%r: bad unit %r" % (m.get("name"), m.get("unit")))
    for n in names:
        expect(isinstance(n, str) and NAME_RE.match(n), "bad name %r" % n)
    dup = [n for n, c in collections.Counter(names).items() if c > 1]
    expect(not dup, "names used twice: %s" % dup)
    expect(len(json.dumps(spec)) <= 64 * 1024, "spec larger than 64 KiB")

    e2e_names = {m.get("name") for m in e2e}
    workload_names = {w.get("name") for w in workloads}
    for m in layer:
        base = re.sub(r"\.[MSF]$", "", str(m.get("name")))
        expect(base in LAYER_MOVES, "%r has no LAYER_MOVES entry" % base)
    for base, (moves, on, unchanged_on) in LAYER_MOVES.items():
        for n in moves:
            expect(n in e2e_names, "%s moves unknown metric %r" % (base, n))
        for w in on + unchanged_on:
            expect(w in workload_names, "%s names unknown workload %r"
                   % (base, w))
    return errors


# ------------------------------------------------------------------ run

def build():
    """Configures (once) and builds bench_suite; build output goes to
    stderr so stdout stays the result."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("benchmark: %s holds no factorml sources to build" % ROOT)
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(BUILD_DIR):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", BUILD_DIR, "-j", jobs,
                            "--target", "bench_suite"]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("benchmark: build step failed: %s" % " ".join(cmd))
    return os.path.join(BUILD_DIR, "bench_suite")


def run_suite(binary, workload, seed, seconds, trace):
    """Runs one bench_suite process in a scratch directory under the build
    tree; returns (result document, trace events or None)."""
    scratch = os.path.join(BUILD_ROOT, "run-%d" % os.getpid())
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    env = dict(os.environ)
    # Would swap the vector kernel table the workloads are defined with.
    env.pop("FACTORML_KERNELS_BACKEND", None)
    out = os.path.join(scratch, "result.json")
    try:
        proc = subprocess.run(
            [binary, "--workload=" + workload, "--seed=%d" % seed,
             "--seconds=%g" % seconds, "--trace=%d" % trace,
             "--dir=" + scratch, "--out=" + out],
            stdout=sys.stderr, stderr=sys.stderr, env=env, cwd=ROOT,
            timeout=SUITE_TIMEOUT_S)
        if proc.returncode != 0:
            sys.exit("benchmark: bench_suite exited %d" % proc.returncode)
        with open(out) as f:
            doc = json.load(f)
        events = None
        if trace:
            with open(doc["trace"]["path"]) as f:
                events = json.load(f)["traceEvents"]
        return doc, events
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def print_summary(doc, metrics, units, reasons):
    print("workload %s seed %d: %d timed rounds" %
          (doc["workload"], doc["seed"], doc["timed_rounds"]))
    raw = samples(doc)
    for name, value in metrics.items():
        line = "  %-32s %14.6g %s" % (name, value, units[name])
        if name in raw and len(raw[name]) > 1:
            s = summarize(raw[name])
            line += "  (n=%d p25=%.4g median=%.4g p75=%.4g" % (
                s["n"], s["p25"], s["median"], s["p75"])
            if s["tail"]:
                line += " p%d=%.4g" % s["tail"]
            line += ")"
        print(line)
    for r in reasons:
        print("  FAILED: " + r)


def cmd_run(args):
    spec = load_spec()
    known = [w["name"] for w in spec["workloads"]]
    if args.workload not in known:
        sys.exit("benchmark: unknown workload %r (known: %s)"
                 % (args.workload, ", ".join(known)))
    binary = build()
    doc, events = run_suite(binary, args.workload, args.seed, args.seconds,
                            args.trace)
    failed, reasons = check(doc)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    computed = per_layer(doc, events) if args.trace else end_to_end(doc)
    missing = [m["name"] for m in wanted if computed.get(m["name"]) is None]
    if missing:
        sys.exit("benchmark: no value for %s" % ", ".join(missing))
    metrics = {m["name"]: computed[m["name"]] for m in wanted}
    units = {m["name"]: m["unit"] for m in wanted}
    attempted = len(doc["runs"]) + len(doc["probes"])
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items()},
    }
    print_summary(doc, metrics, units, reasons)
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"workload": doc["workload"], "seed": doc["seed"],
                       "trace": args.trace, "result": result,
                       "samples": samples(doc)}, f, indent=1)
    print(json.dumps(result))
    return 0


# -------------------------------------------------------------- compare

def verdict(base, new, bound, better):
    """(verdict, relative change of the medians, base spread). Positive
    change means worse. Unresolved when the base runs' own spread exceeds
    the bound, unless every new run beats (or loses to) every base run."""
    sign = 1.0 if better == "lower" else -1.0
    b_med, n_med = statistics.median(base), statistics.median(new)
    change = sign * (n_med - b_med) / abs(b_med) if b_med else 0.0
    base_spread = spread(base)
    beats = all(sign * (n - b) < 0 for n in new for b in base)
    loses = all(sign * (n - b) > 0 for n in new for b in base)
    if base_spread > bound and not (beats or loses):
        return "unresolved", change, base_spread
    if change > bound:
        return "worse", change, base_spread
    if change < -bound or (beats and -change > base_spread):
        return "better", change, base_spread
    return "unchanged", change, base_spread


def load_results(paths):
    """{workload: {metric: [value per result file]}}."""
    out = collections.defaultdict(lambda: collections.defaultdict(list))
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        for name, m in doc["result"]["metrics"].items():
            out[doc["workload"]][name].append(m["value"])
    return out


def cmd_compare(args):
    spec = load_spec()
    base, new = load_results(args.base), load_results(args.new)
    worse = False
    print("%-14s %-12s %12s %12s %8s %6s %7s  %s" % (
        "workload", "metric", "base", "new", "delta", "bound", "spread",
        "verdict"))
    for w in [w["name"] for w in spec["workloads"]]:
        for m in spec["end_to_end"]:
            b, n = base[w].get(m["name"]), new[w].get(m["name"])
            if not b or not n:
                continue
            v, change, base_spread = verdict(b, n, m["bound"], m["better"])
            worse |= v == "worse"
            print("%-14s %-12s %12.6g %12.6g %+7.1f%% %5.0f%% %6.1f%%  %s" % (
                w, m["name"], statistics.median(b), statistics.median(n),
                100 * change, 100 * m["bound"], 100 * base_spread, v))
    return 1 if worse else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="build and run one workload")
    run.add_argument("--workload", required=True)
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--seconds", type=float, default=20.0)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--save", help="write the result and raw samples here")
    cmp_ = sub.add_parser("compare", help="compare saved run results")
    cmp_.add_argument("--base", nargs="+", required=True)
    cmp_.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    return cmd_run(args) if args.command == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
