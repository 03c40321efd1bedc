"""dyk3 benchmark: seeded workloads, checked results, per-layer tracing.

    python3 perfbench/run.py --workload count|sieve|tate|census|all \\
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root or anywhere else; the program is imported from
``src/`` next to this directory.  A run times the set-up ``SETUP_REPS``
times, then runs passes of checked items, single-process and single-threaded,
until ``--seconds`` have passed and at least ``MIN_PASSES`` passes are done.
With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics named in BENCHMARK.json; with ``--trace 1`` it runs one
pass untraced and the same pass traced, and reports the per-layer metrics
instead.  ``--smoke`` runs
every workload at its smallest size with the same checks.  The command
exits 1 if any item failed its check, and 2 if the program cannot be run.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# bytecode goes to out/ (git-ignored), so src/ stays clean, and set-ups
# after the first load cached bytecode as a CLI run does, whatever
# PYTHONDONTWRITEBYTECODE says
sys.pycache_prefix = str(OUT / "pycache")
sys.dont_write_bytecode = False

sys.path.insert(0, str(HERE))
from tracing import Tracer, split_metric  # noqa: E402
from workloads import WORKLOADS, import_program  # noqa: E402

SETUP_REPS = 31
# wall_s is a median of at least two passes, also where one pass outlasts
# --seconds (a census pass takes 20-30 s)
MIN_PASSES = 2
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


class Result(NamedTuple):
    item: str
    seconds: float
    work: int
    error: str | None


def env_record(args):
    try:
        import numpy
        import sympy
        versions = f"numpy={numpy.__version__} sympy={sympy.__version__}"
    except ImportError as exc:
        versions = f"missing dependency: {exc}"
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"{versions} commit={git_commit()} workload={args.workload} "
            f"seed={args.seed} seconds={args.seconds} trace={args.trace} "
            f"smoke={int(args.smoke)}")


def git_commit():
    """HEAD of the checkout; 'unknown' outside a git work tree."""
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
            text=True, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_pass(wl, dy, state, inputs, tracer=None):
    """One pass of checked items; returns (wall seconds, [Result])."""
    items = wl.items(dy, state, inputs)
    # every pass starts alike: no garbage, and sympy's caches empty as in a
    # fresh CLI process, so a repeated input is not served from cache
    if "sympy" in sys.modules:
        sys.modules["sympy"].core.cache.clear_cache()
    gc.collect()
    results = []
    t_pass = perf_counter()
    for k, item in enumerate(items):
        if tracer:
            tracer.item = k
            span = tracer.open(tracer.name_id("bench.item"))
        t0 = perf_counter()
        try:
            work, err = item.run(), None
        except Exception:
            work, err = 0, traceback.format_exc().strip().splitlines()[-1]
        dt = perf_counter() - t0
        if tracer:
            tracer.close(span)
            tracer.item = -1
        results.append(Result(item.id, dt, work, err))
        if err:
            print(f"# FAILED item {item.id} of the pass with inputs "
                  f"{json.dumps(inputs, default=str)}: {err}")
        else:
            print(f"# item {item.id}: ok {dt:.4f} s work={work}")
    return perf_counter() - t_pass, results


def timed_setup(wl):
    times = []
    for _ in range(SETUP_REPS):
        dy = state = None
        gc.collect()    # frees the previous repetition's modules
        t0 = perf_counter()
        dy = import_program(wl.modules)
        state = wl.setup(dy)
        times.append(perf_counter() - t0)
    print(f"# setup: {SETUP_REPS} reps, " + " ".join(f"{t:.4f}" for t in times))
    where = Path(next(iter(vars(dy).values())).__file__).resolve()
    if not where.is_relative_to(ROOT / "src"):
        raise ImportError(f"dyk3 imported from {where}, not {ROOT / 'src'}")
    return dy, state, statistics.median(times)


def e2e_metrics(wl, seconds):
    """{name: (value, unit, note)} and the results of every pass."""
    dy, state, setup_s = timed_setup(wl)
    walls, results = [], []
    t_start = perf_counter()
    while len(walls) < MIN_PASSES or perf_counter() - t_start < seconds:
        inputs = wl.inputs[len(walls) % len(wl.inputs)]
        print(f"# pass {len(walls)}: inputs {json.dumps(inputs, default=str)}")
        wall, res = run_pass(wl, dy, state, inputs)
        walls.append(wall)
        results.extend(res)
    failed = sum(1 for r in results if r.error)
    work = sum(r.work for r in results if not r.error)
    # a failed item counts as missing its latency
    lat = sorted(math.inf if r.error else r.seconds for r in results)
    pct = next((p for p in TAIL_LADDER if len(lat) * (1 - p / 100) >= 10), None)
    return {
        "wall_s": (statistics.median(walls), "s", f"median of {len(walls)} passes"),
        "setup_s": (setup_s, "s", f"median of {SETUP_REPS} set-ups"),
        "work_per_s": (work / sum(walls), "1/s",
                       f"{work} {wl.unit} in {sum(walls):.3f} s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB", "1 process"),
        "item_p50_s": (statistics.median(lat), "s", f"{len(lat)} items"),
        "item_tail_s": ((lat[math.ceil(len(lat) * pct / 100) - 1], "s",
                         f"p{pct:g} of {len(lat)} items") if pct else
                        (None, "s", f"omitted: {len(lat)} items leave fewer "
                         "than 10 beyond p75")),
        "failed_frac": (failed / len(results), "1",
                        f"{failed} of {len(results)} items"),
    }, results


def layer_metrics(wl, seed, units):
    """Per-layer {name: (value, unit, note)} from one traced pass."""
    dy, state, _ = timed_setup(wl)
    inputs = wl.inputs[0]
    print(f"# pass 0 untraced: inputs {json.dumps(inputs, default=str)}")
    wall_u, res_u = run_pass(wl, dy, state, inputs)
    tracer = Tracer(units)
    tracer.install()
    try:
        span = tracer.open(tracer.name_id("bench.setup"))
        state = wl.setup(dy)
        tracer.close(span)
        print("# pass 0 traced")
        wall_t, res_t = run_pass(wl, dy, state, inputs, tracer)
    finally:
        tracer.uninstall()
    agg = tracer.aggregate()
    work = sum(r.work for r in res_t if not r.error)

    def stat(target, s):
        return agg.get(target, {}).get(s, 0)

    def ratio(num, den, base):
        if not num:
            return 0.0, "not called by this workload"
        return (num / den if den else 0.0), f"base: {base}"

    tables = stat("tate.EllipticSurface.bad_fibres", "calls")
    scan_s = stat("sscan.scan", "total_s")
    derived = {
        "tate.local_type.calls_per_place": ratio(
            stat("tate.EllipticSurface.local_type", "calls"), work,
            f"{work} {wl.unit}"),
        "tate.delta.calls_per_table": ratio(
            stat("tate.EllipticSurface.delta", "calls"), tables,
            f"{tables} tables"),
        "sscan.reverify_share": ratio(
            stat("sscan.ScanReport.verify_witnesses", "total_s"), scan_s,
            f"scan {scan_s:.4f} s"),
        "trace.overhead_s": (wall_t - wall_u,
                             f"traced {wall_t:.4f} s - untraced {wall_u:.4f} s"),
        "trace.unattributed_s": (
            wall_t - tracer.top_level_time("bench.item"),
            f"traced pass {wall_t:.4f} s minus top-level program spans"),
    }
    metrics = {}
    for name, unit in units.items():
        if name in derived:
            value, note = derived[name]
        else:
            target, s = split_metric(name)
            if target is None:
                raise KeyError(f"no rule computes per-layer metric {name}")
            value = stat(target, s)
            note = "" if stat(target, "calls") else "not called by this workload"
        metrics[name] = (value, unit, note)
    path = OUT / f"spans-{wl.name}-seed{seed}.csv.gz"
    tracer.write(path)
    print(f"# {len(tracer.s_start)} spans written to {path.relative_to(ROOT)}")
    return metrics, res_u + res_t


def run_one(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    print(f"# env: {env_record(args)}")
    print(f"# inputs: workload={wl.name} varies {wl.dimension}; "
          f"digest={wl.digest()} over {len(wl.inputs)} passes")
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        report, results = layer_metrics(wl, args.seed, units)
    else:
        report, results = e2e_metrics(wl, args.seconds)
    for name, (value, unit, note) in report.items():
        shown = "-" if value is None else f"{value:.6g}"
        print(f"# {name:46s} {shown:>12s} {unit:11s} {note}")
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    failed = sum(1 for r in results if r.error)
    print(json.dumps({
        "correct": failed == 0, "attempted": len(results), "failed": failed,
        "metrics": {n: {"value": report[n][0], "unit": report[n][1]}
                    for n in names}}))
    return 1 if failed else 0


def run_all(args):
    """Each workload in its own process, so peak RSS is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        code = max(code, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            return code or 2
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{name}.{k}": v
                                  for k, v in res["metrics"].items()})
    print(json.dumps(merged))
    return code


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="smallest size of every workload, same checks")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (ROOT / "src" / "dyk3" / "__init__.py").is_file():
        print(f"error: no dyk3 package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        return run_one(args)
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
