"""The benchmark harness at its smallest size, so that it cannot rot."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


@pytest.mark.parametrize("workload", ["count", "sieve", "tate", "census"])
def test_bench_smoke(workload):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "0", "--smoke"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True


def test_trace_targets_resolve():
    """Every per-layer target in BENCHMARK.json is found where
    tracing.Tracer.install looks it up: a module attribute for a function, a
    class's own __dict__ for a method.  A rename or a move would otherwise
    drop the target from `run.py --trace 1` without an error."""
    found_at = importlib.util.spec_from_file_location("tracing", RUN.parent / "tracing.py")
    tracing = importlib.util.module_from_spec(found_at)
    found_at.loader.exec_module(tracing)
    bench = json.loads((RUN.parents[1] / "BENCHMARK.json").read_text())
    unresolved = []
    for metric in bench["per_layer"]:
        target, _ = tracing.split_metric(metric["name"])
        if target is None:
            continue
        modname, *path = target.split(".")
        mod = importlib.import_module("dyk3." + modname)
        if target in tracing.GROUPS:
            found = bool(tracing.GROUPS[target](mod))
        elif len(path) == 1:
            found = callable(getattr(mod, path[0], None))
        else:
            found = callable(vars(getattr(mod, path[0], object)).get(path[1]))
        if not found:
            unresolved.append(target)
    assert unresolved == []
