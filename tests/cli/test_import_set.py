"""What a ``repro verify --all`` process imports, cold and warm, and what
compiling a circuit imports.

Each run is a fresh interpreter that calls ``repro.cli.main`` (or compiles)
and then reports ``sorted(sys.modules)``.  The guard is on module sets, never on
timings: a module on this list costs every user on every run.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[2] / "src")

CHILD = """
import contextlib, io, json, sys
import repro.cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = repro.cli.main(sys.argv[1:])
print(json.dumps({"code": code, "modules": sorted(sys.modules),
                  "stdout": out.getvalue()}))
"""

#: Never needed by an in-process verify: the concrete compiler, the
#: benchmarks, a process pool, numpy (the dense-matrix oracle runs only to
#: confirm a counterexample) and the daemon stack with its network modules.
NEVER = ("networkx", "repro.bench", "repro.dag", "repro.transpiler",
         "multiprocessing", "numpy", "repro.service", "http", "email", "ssl",
         "socket")
#: Not needed when every pass is served from the store: the discharge
#: pipeline, the prover and the solver, and the counterexample search.
NOT_WARM = NEVER + ("repro.smt.arena", "repro.verify.discharge",
                    "repro.verify.counterexample", "repro.verify.bounded",
                    "repro.prover.methods", "repro.prover.certificate",
                    "repro.smt")

#: Verifies one pass of ``repro.passes.buggy`` by name through the engine
#: (the command line lists only the shipped passes).
BUGGY_CHILD = """
import json, sys
from repro.engine.driver import default_pass_kwargs, verify_passes
from repro.passes import buggy
from repro.verify.report import to_json
report = verify_passes([getattr(buggy, sys.argv[1])], cache_dir=sys.argv[2],
                       pass_kwargs_fn=default_pass_kwargs)
print(json.dumps({"report": json.loads(to_json(report.results, stats=report.stats)),
                  "modules": sorted(sys.modules)}))
"""


#: Compiles one suite circuit through both Figure 11 pipelines, importing
#: what the ``compile`` benchmark imports.
COMPILE_CHILD = """
import json, sys
from repro.bench.figure11 import default_device
from repro.bench.qasmbench import qasmbench_suite
from repro.transpiler.presets import baseline_pipeline, verified_pipeline
suite = qasmbench_suite()
device = default_device(suite)
sizes = [factory(device).run(suite[0].circuit()).size()
         for factory in (verified_pipeline, baseline_pipeline)]
print(json.dumps({"sizes": sizes, "modules": sorted(sys.modules)}))
"""

#: Never needed to compile: the compiler runs the passes concretely and
#: verifies nothing, and the DAG needs no graph library.
NOT_COMPILE = ("networkx", "sqlite3", "repro.engine", "repro.verify.verifier")


def _child(code, *args, src=SRC):
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        capture_output=True, text=True, env=env, timeout=300, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def _verify_all(cache_dir, *extra, src=SRC):
    """The modules a ``verify --all`` run loaded, and its engine stats."""
    report = _child(CHILD, "verify", "--all", "--format", "json",
                    "--cache-dir", cache_dir, *extra, src=src)
    assert report["code"] == 0
    return set(report["modules"]), json.loads(report["stdout"])["engine"]


def _loaded(modules, names):
    return sorted(m for m in modules
                  if any(m == name or m.startswith(name + ".") for name in names))


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("import-set-cache")
    cold, _ = _verify_all(cache_dir)
    warm, _ = _verify_all(cache_dir)
    return cold, warm


def test_cold_verify_loads_no_compiler_or_benchmarks(runs):
    cold, _ = runs
    assert "repro.passes" in cold
    assert _loaded(cold, NEVER) == []


def test_warm_verify_loads_no_kernel_compiler_or_benchmarks(runs):
    _, warm = runs
    assert "repro.engine.driver" in warm
    assert _loaded(warm, NOT_WARM) == []


def test_edit_only_reverify_loads_no_prover(tmp_path):
    """An edit that leaves every proof obligation alone (here a comment in
    a pass class) misses the pass key but hits every subgoal key, so the
    re-verify builds no discharge pipeline."""
    src = tmp_path / "src"
    shutil.copytree(Path(SRC) / "repro", src / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cache_dir = tmp_path / "cache"
    _verify_all(cache_dir, src=str(src))
    module = src / "repro" / "passes" / "optimization.py"
    header = "class CXCancellation(GeneralPass):\n"
    text = module.read_text()
    assert text.count(header) == 1
    module.write_text(text.replace(header, header + "    # edited\n"))
    edited, engine = _verify_all(cache_dir, "--changed", str(module), src=str(src))
    assert engine["cache_misses"] == 1 and engine["subgoal_misses"] == 0
    assert engine["subgoal_hits"] > 0
    assert _loaded(edited, NOT_WARM) == []


def _without_timings(report):
    results = [{k: v for k, v in row.items() if k != "time_seconds"}
               for row in report["results"]]
    summary = {k: v for k, v in report["summary"].items() if k != "total_seconds"}
    return results, summary


def test_warm_buggy_pass_rebuilds_its_counterexample_without_numpy(tmp_path):
    cold = _child(BUGGY_CHILD, "BuggyOptimize1qGates", tmp_path)
    warm = _child(BUGGY_CHILD, "BuggyOptimize1qGates", tmp_path)
    assert "numpy" in cold["modules"]  # the cold run confirmed it densely
    assert warm["report"]["engine"]["cache_hits"] == 1
    assert warm["report"]["results"][0]["counterexample"]["input_qasm"]
    assert "repro.verify.counterexample" in warm["modules"]
    assert _loaded(warm["modules"], ("numpy", "repro.prover", "repro.smt")) == []
    assert _without_timings(warm["report"]) == _without_timings(cold["report"])


def test_compile_loads_no_verify_engine_or_graph_library():
    report = _child(COMPILE_CHILD)
    assert all(size > 0 for size in report["sizes"])
    assert "repro.dag" in report["modules"]
    assert _loaded(report["modules"], NOT_COMPILE) == []
