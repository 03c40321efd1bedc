"""The benchmark harness at its smallest size, so that it cannot rot."""

import importlib
import importlib.util
import json
import os
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


def test_workload_imports_leave_out_the_census_modules(monkeypatch):
    """In a fresh interpreter, importing the dyk3 modules that count, sieve
    or tate names, each time from a cold package as the workload's set-up
    does, loads neither dyk3.kodaira nor dyk3.lattice: a change to those two
    cannot move these workloads."""
    found_at = importlib.util.spec_from_file_location("workloads", RUN.parent / "workloads.py")
    workloads = importlib.util.module_from_spec(found_at)
    monkeypatch.setitem(sys.modules, "workloads", workloads)   # for @dataclass
    found_at.loader.exec_module(workloads)
    wanted = {w: list(workloads.WORKLOADS[w].modules)
              for w in ("count", "sieve", "tate")}
    code = ("import importlib, json, sys\n"
            "loaded = {}\n"
            f"for w, modules in {wanted!r}.items():\n"
            "    for key in [k for k in sys.modules if k.startswith('dyk3')]:\n"
            "        del sys.modules[key]\n"
            "    for m in modules:\n"
            "        importlib.import_module('dyk3.' + m)\n"
            "    loaded[w] = sorted(k for k in sys.modules if k.startswith('dyk3'))\n"
            "print(json.dumps(loaded))")
    path = os.pathsep.join([str(RUN.parents[1] / "src"),
                            os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr[-2000:]
    for w, loaded in json.loads(proc.stdout).items():
        assert {"dyk3." + m for m in wanted[w]} <= set(loaded), w
        assert not {"dyk3.kodaira", "dyk3.lattice"} & set(loaded), w
