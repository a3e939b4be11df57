"""dseq benchmark: one workload per process, or a table of all of them.

Run one workload (the benchmark's contract; the last line of stdout is one
JSON object with correct / attempted / failed / metrics):

    python3 perfbench/run.py --workload poly_compose --seed 1 --seconds 20 --trace 0

`--trace 0` reports the end-to-end metrics and `--trace 1` the per-layer
ones from a traced run.  Run every workload, each in its own process, and
print one row per workload (add `--traced K` for the tracing overhead,
`--runs K` for medians over seeds, `--baseline FILE` to record them):

    python3 perfbench/run.py --all --runs 3 --traced 3

Times are in reference seconds: each is scaled by a calibration kernel
timed just before it (see calibration.py), because the machine's speed
drifts by more than any useful bound.  Wall-clock figures are printed too.

The program is imported from `src/` of the checkout that holds this file;
without it the benchmark exits with code 2 and prints no result.
"""

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

from calibration import kernel_time, reference_seconds  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 7
TAIL_BEYOND = 10
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)
E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s",
             "peak_rss_mb": "MB"}


def import_dseq():
    """Import dseq afresh from this checkout's src/ (and only from there)."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "dseq", "__init__.py")):
        raise ImportError(f"no dseq package under {src}")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules if n == "dseq" or n.startswith("dseq.")]:
        del sys.modules[name]
    dseq = importlib.import_module("dseq")
    if os.path.dirname(os.path.dirname(os.path.abspath(dseq.__file__))) != src:
        raise ImportError(f"dseq was imported from {dseq.__file__}, not {src}")
    return dseq


def set_up(name, seed, size, workdir):
    """Import dseq and build the workload's inputs SETUP_REPEATS times.
    Returns the last workload built, which is the one run, and the median
    set-up time in reference and in wall seconds."""
    ref, wall = [], []
    for _ in range(SETUP_REPEATS):
        before = kernel_time()
        t0 = perf_counter()
        workload = WORKLOADS[name](import_dseq(), seed, size, workdir)
        wall.append(perf_counter() - t0)
        ref.append(reference_seconds(wall[-1], before, kernel_time()))
    return workload, statistics.median(ref), statistics.median(wall)


def tail(latencies):
    """(percentile, value, ops beyond) at the highest listed percentile with
    at least TAIL_BEYOND ops beyond it; None when the run has too few."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1], n - rank
    return None


def timed_loop(workload, seconds, tracer=None):
    """Closed loop over whole cycles until `seconds` have passed.  Returns
    per op: key, wall latency, reference latency, raised, accepted.  The
    calibration kernel runs just before and just after each op, outside
    its timing."""
    ops = []
    start = perf_counter()
    while True:
        for key in workload.cycle():
            before = kernel_time()
            if tracer is not None:
                tracer.start_op(len(ops))
            t0 = perf_counter()
            try:
                result = workload.op(key)
                raised = False
            except Exception:
                traceback.print_exc(file=sys.stderr)
                raised = True
            latency = perf_counter() - t0
            if tracer is not None:
                tracer.end_op()
            ref = reference_seconds(latency, before, kernel_time())
            accepted = not raised and workload.accept(key, result)
            ops.append((key, latency, ref, raised, accepted))
            result = None
        if perf_counter() - start >= seconds:
            return ops


def run_workload(name, seed, seconds, trace, size="full"):
    """Set up, measure and check one workload; returns the full result."""
    workdir = os.path.join(OUT, f"work-{name}-{os.getpid()}")
    try:
        workload, setup_s, wall_setup_s = set_up(name, seed, size, workdir)
        tracer = None
        if trace:
            tracer = Tracer()
            tracer.install(workload.dseq)
        try:
            ops = timed_loop(workload, seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        bad_keys = workload.verify()
        extra = {} if trace else workload.extra_metrics()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wall = [op[1] for op in ops]
    latencies = [op[2] for op in ops]
    failed = sum(1 for key, _, _, raised, ok in ops
                 if raised or not ok or key in bad_keys)
    completed = sum(1 for op in ops if not op[3])
    ops_per_s = completed / sum(latencies)
    result = {
        "workload": name, "seed": seed, "trace": trace,
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "error_ratio": failed / len(ops),
        "tail": tail(latencies),
    }
    if trace:
        result["metrics"] = tracer.metrics(ops_per_s)
        spans = os.path.join(OUT, f"spans-{name}-seed{seed}.jsonl")
        tracer.write_spans(spans)
        result["spans"] = {"file": os.path.relpath(spans, ROOT),
                           "kept": len(tracer.spans), "dropped": tracer.dropped}
    else:
        values = {"setup_s": setup_s, "ops_per_s": ops_per_s,
                  "op_p50_s": statistics.median(latencies),
                  "peak_rss_mb": peak_rss_mb}
        result["metrics"] = {k: {"value": v, "unit": E2E_UNITS[k]}
                             for k, v in values.items()}
        result["extra"] = {
            "wall_ops_per_s": {"value": completed / sum(wall), "unit": "1/s"},
            "wall_op_p50_s": {"value": statistics.median(wall), "unit": "s"},
            "wall_setup_s": {"value": wall_setup_s, "unit": "s"},
            **extra}
    return result


def describe(result):
    """One human-readable row for a workload run."""
    m = result["metrics"]
    if result["trace"]:
        parts = [f"trace.ops_per_s {m['trace.ops_per_s']['value']:.4g} 1/s",
                 f"spans kept {result['spans']['kept']} "
                 f"dropped {result['spans']['dropped']}"]
    else:
        parts = [f"{k} {m[k]['value']:.4g} {m[k]['unit']}" for k in E2E_UNITS]
        t = result["tail"]
        parts.append(f"op_tail_s {t[1]:.4g} s (p{t[0]:g}, {t[2]} of "
                     f"{result['attempted']} ops beyond)" if t else
                     f"op_tail_s n/a ({result['attempted']} ops, needs "
                     f"{2 * TAIL_BEYOND} for p50 with {TAIL_BEYOND} beyond)")
        for k, v in result["extra"].items():
            parts.append(f"{k} {v['value']:.4g} {v['unit']}")
    parts.append(f"error_ratio {result['error_ratio']:.4g} "
                 f"({result['failed']}/{result['attempted']})")
    return f"{result['workload']}: " + " | ".join(parts)


def run_child(name, seed, seconds, trace, size):
    """Run one workload in its own process and return its full result."""
    os.makedirs(OUT, exist_ok=True)
    report = os.path.join(OUT, f"report-{name}-{seed}-{trace}-{os.getpid()}.json")
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--size", size, "--report", report]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=600)
    with open(report, encoding="utf-8") as fh:
        result = json.load(fh)
    os.remove(report)
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def machine():
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": model, "cpus": os.cpu_count(), "system": platform.system(),
            "python": platform.python_version()}


def summary(args):
    """Every workload in its own process, `runs` seeds each; one row per
    workload with medians (and quartiles) of every end-to-end metric."""
    seeds = [args.seed + i for i in range(args.runs)]
    table = {}
    for name in WORKLOADS:
        runs = [run_child(name, s, args.seconds, 0, args.size) for s in seeds]
        traced = [run_child(name, s, args.seconds, 1, args.size)
                  for s in seeds[:args.traced]]
        row = {}
        for metric in E2E_UNITS:
            vals = [r["metrics"][metric]["value"] for r in runs]
            row[metric] = (quartiles(vals), E2E_UNITS[metric])
        tails = [r["tail"] for r in runs]
        row["op_tail_s"] = ((quartiles([t[1] for t in tails]), "s")
                            if all(tails) else None)
        row["tail_at"] = [(t[0], t[2]) for t in tails] if all(tails) else None
        row["error_ratio"] = (quartiles([r["error_ratio"] for r in runs]), "")
        row["attempted"] = [r["attempted"] for r in runs]
        for k in runs[0]["extra"]:
            vals = [r["extra"][k]["value"] for r in runs]
            row[k] = (quartiles(vals), runs[0]["extra"][k]["unit"])
        if traced:
            vals = [r["metrics"]["trace.ops_per_s"]["value"] for r in traced]
            row["traced_ops_per_s"] = (quartiles(vals), "1/s")
            row["tracing_overhead"] = (
                row["ops_per_s"][0][1] / statistics.median(vals) - 1, "")
            row["traced_layer_share"] = statistics.median(
                r["metrics"]["trace.layer_self_s"]["value"]
                / r["metrics"]["trace.op_time_s"]["value"] for r in traced)
            row["traced_top_self_s"] = top_layers(traced)
            row["traced_module_share"] = module_shares(traced)
        table[name] = row
        print(format_row(name, row), flush=True)
    if args.baseline:
        write_baseline(args, table, seeds)
    return 0


def top_layers(traced, count=6):
    """Median self time per span, largest first."""
    names = [k[:-len(".self_s")] for k in traced[0]["metrics"]
             if k.endswith(".self_s")]
    medians = {n: statistics.median(r["metrics"][n + ".self_s"]["value"]
                                    for r in traced) for n in names}
    return sorted(medians.items(), key=lambda kv: -kv[1])[:count]


def module_shares(traced):
    """Median share of the traced op time spent in each module's own code
    (self time summed over its spans)."""
    shares = {}
    for r in traced:
        m = r["metrics"]
        op_time = m["trace.op_time_s"]["value"]
        per = {}
        for k, v in m.items():
            if k.endswith(".self_s"):
                mod = k.split(".")[0]
                per[mod] = per.get(mod, 0.0) + v["value"] / op_time
        for mod, share in per.items():
            shares.setdefault(mod, []).append(share)
    return {mod: statistics.median(v) for mod, v in shares.items()
            if statistics.median(v) > 0}


def format_row(name, row):
    parts = []
    for key, cell in row.items():
        if key in ("tail_at", "attempted", "traced_layer_share",
                   "traced_top_self_s", "traced_module_share",
                   "tracing_overhead"):
            continue
        if cell is None:
            parts.append(f"{key} n/a (under {2 * TAIL_BEYOND} ops per run)")
            continue
        (q1, med, q3), unit = cell
        unit = f" {unit}" if unit else ""
        parts.append(f"{key} {med:.4g}{unit} [{q1:.4g}..{q3:.4g}]")
    if row.get("tail_at"):
        parts.append("tail at " + ", ".join(f"p{p:g}/{b}" for p, b in
                                            row["tail_at"]))
    parts.append("ops " + ",".join(str(a) for a in row["attempted"]))
    if "tracing_overhead" in row:
        parts.append(f"tracing overhead {100 * row['tracing_overhead'][0]:.1f}%")
        parts.append(f"layer self share {row['traced_layer_share']:.3f}")
        parts.append("top self " + ", ".join(
            f"{n} {v:.3g}s" for n, v in row["traced_top_self_s"]))
        parts.append("module share " + ", ".join(
            f"{n} {v:.3f}" for n, v in sorted(
                row["traced_module_share"].items(), key=lambda kv: -kv[1])))
    return f"{name}: " + " | ".join(parts)


def write_baseline(args, table, seeds):
    workloads = {}
    for name, row in table.items():
        entry = {"why": WORKLOADS[name].why, "ops_per_run": row["attempted"]}
        for key, cell in row.items():
            if isinstance(cell, tuple) and isinstance(cell[0], tuple):
                (q1, med, q3), unit = cell
                entry[key] = {"median": med, "q1": q1, "q3": q3, "unit": unit,
                              "spread": (q3 - q1) / med if med else 0.0}
        if row.get("op_tail_s") is None:
            entry["op_tail_s"] = f"omitted: under {2 * TAIL_BEYOND} ops per run"
        if "tracing_overhead" in row:
            entry["tracing_overhead"] = row["tracing_overhead"][0]
            entry["traced_layer_self_share"] = row["traced_layer_share"]
            entry["traced_top_self_s"] = dict(row["traced_top_self_s"])
            entry["traced_module_share"] = row["traced_module_share"]
        workloads[name] = entry
    doc = {"git_sha": git_sha(), "machine": machine(),
           "seconds": args.seconds, "seeds": seeds, "workloads": workloads}
    with open(args.baseline, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true",
                        help="run every workload in its own process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1,
                        help="with --all: seeds per workload")
    parser.add_argument("--traced", type=int, default=0, metavar="K",
                        help="with --all: also run the first K seeds traced, "
                             "for the tracing overhead")
    parser.add_argument("--baseline", help="with --all: write results here")
    parser.add_argument("--report", help="also write the full result here")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input, for the tests")
    args = parser.parse_args(argv)
    if args.all:
        return summary(args)
    if args.workload is None:
        parser.error("give --workload NAME or --all")
    try:
        import_dseq()
    except ImportError as exc:
        print(f"error: cannot import dseq: {exc}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, args.trace,
                          args.size)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
    print(describe(result))
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
