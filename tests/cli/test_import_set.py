"""What a ``repro verify --all`` process imports, cold and warm.

Each run is a fresh interpreter that calls ``repro.cli.main`` and then
reports ``sorted(sys.modules)``.  The guard is on module sets, never on
timings: a module on this list costs every user on every run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[2] / "src")

CHILD = """
import contextlib, io, json, sys
import repro.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = repro.cli.main(sys.argv[1:])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""

#: Never needed by an in-process verify over a JSONL store: the concrete
#: compiler, the benchmarks, a process pool and the sqlite tier.
NEVER = ("networkx", "repro.bench", "repro.dag", "repro.transpiler",
         "multiprocessing", "sqlite3")
#: Not needed when every pass is served from the store: the proving kernel.
NOT_WARM = NEVER + ("repro.smt.arena",)


def _verify_all(cache_dir):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-c", CHILD, "verify", "--all", "--format", "json",
         "--cache-dir", str(cache_dir)],
        capture_output=True, text=True, env=env, timeout=300, check=True)
    report = json.loads(out.stdout.strip().splitlines()[-1])
    assert report["code"] == 0
    return set(report["modules"])


def _loaded(modules, names):
    return sorted(m for m in modules
                  if any(m == name or m.startswith(name + ".") for name in names))


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("import-set-cache")
    cold = _verify_all(cache_dir)
    warm = _verify_all(cache_dir)
    return cold, warm


def test_cold_verify_loads_no_compiler_or_benchmarks(runs):
    cold, _ = runs
    assert "repro.passes" in cold
    assert _loaded(cold, NEVER) == []


def test_warm_verify_loads_no_kernel_compiler_or_benchmarks(runs):
    _, warm = runs
    assert "repro.engine.driver" in warm
    assert _loaded(warm, NOT_WARM) == []
