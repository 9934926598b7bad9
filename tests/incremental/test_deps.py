"""Dependency-index construction and persistence in the proof store."""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.engine.cache import ProofCache
from repro.engine.fingerprint import pass_fingerprint
from repro.incremental.deps import (
    DEPS_SCHEMA_VERSION,
    build_dep_entry,
    identity_key,
    import_closure,
    pass_dependency_paths,
    toolchain_dependency_paths,
)
from repro.passes import CommutationAnalysis, CXCancellation, Depth


# --------------------------------------------------------------------------- #
# Dependency computation
# --------------------------------------------------------------------------- #
def test_pass_dependencies_cover_fingerprint_inputs():
    paths = pass_dependency_paths(CXCancellation)
    endings = {
        "passes/optimization.py",   # the pass's own module
        "verify/passes.py",         # its base class
        "symbolic/rules.py",        # the rule set
        "symbolic/commutation.py",
        "verify/discharge.py",      # the prover
        "engine/fingerprint.py",    # ENGINE_VERSION / canonicalisation
    }
    for ending in endings:
        assert any(p.endswith(ending) for p in paths), ending
    assert list(paths) == sorted(paths)


def test_toolchain_paths_are_a_subset_of_every_pass():
    toolchain = set(toolchain_dependency_paths())
    assert toolchain <= set(pass_dependency_paths(Depth))
    assert toolchain <= set(pass_dependency_paths(CommutationAnalysis))


def test_import_closure_is_transitive():
    closure = import_closure("repro.passes.optimization")
    assert "repro.passes.optimization" in closure
    # optimization.py imports utility.circuit_ops which imports verify.facts
    assert "repro.utility.circuit_ops" in closure
    assert "repro.verify.facts" in closure
    # nothing outside the package leaks in
    assert all(name.startswith("repro") for name in closure)


def test_dependency_walk_imports_nothing():
    """Recording deps reads sources; it must not execute a single module.

    Run in a fresh interpreter: the closure of every pass reaches
    ``repro.dag`` (and, through it, networkx), which nothing in the verify
    path imports.
    """
    child = (
        "import sys\n"
        "from repro.engine.driver import default_pass_kwargs\n"
        "from repro.incremental.deps import build_dep_entry, import_closure\n"
        "from repro.passes import ALL_VERIFIED_PASSES\n"
        "before = set(sys.modules)\n"
        "closure = import_closure('repro.passes.optimization')\n"
        "assert 'repro.dag.dagcircuit' in closure, sorted(closure)\n"
        "for cls in ALL_VERIFIED_PASSES:\n"
        "    build_dep_entry(cls, default_pass_kwargs(cls), 'fp')\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parents[2] / "src")]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", child], capture_output=True,
                         text=True, env=env, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


def test_identity_key_stable_under_source_edits_but_kwarg_sensitive():
    from repro.coupling.devices import linear_device

    base = identity_key(CXCancellation, None)
    assert base == identity_key(CXCancellation, None)
    assert base != identity_key(Depth, None)
    assert base != identity_key(CXCancellation,
                                {"coupling": linear_device(3)})
    assert identity_key(CXCancellation, {"coupling": linear_device(3)}) != \
        identity_key(CXCancellation, {"coupling": linear_device(4)})


def test_build_dep_entry_shape():
    key = pass_fingerprint(Depth)
    entry = build_dep_entry(Depth, None, key)
    assert entry["schema"] == DEPS_SCHEMA_VERSION
    assert entry["fingerprint"] == key
    assert entry["module"] == "repro.passes.analysis"
    assert entry["qualname"] == "Depth"
    assert entry["paths"] == list(pass_dependency_paths(Depth))
    json.dumps(entry)  # must be wire/sidecar serialisable


# --------------------------------------------------------------------------- #
# Persistence
# --------------------------------------------------------------------------- #
def test_dep_index_persists_across_reopen(tmp_path):
    entry = build_dep_entry(Depth, None, pass_fingerprint(Depth))
    with ProofCache(tmp_path) as cache:
        assert cache.get_deps("ident-1") is None
        cache.put_deps("ident-1", entry)
        assert cache.get_deps("ident-1") == entry

    with ProofCache(tmp_path) as cache:
        assert cache.get_deps("ident-1") == entry
        assert cache.deps_snapshot() == {"ident-1": entry}


def test_dep_index_last_write_wins(tmp_path):
    first = build_dep_entry(Depth, None, "fp-old")
    second = build_dep_entry(Depth, None, "fp-new")
    with ProofCache(tmp_path) as cache:
        cache.put_deps("ident", first)
        cache.put_deps("ident", second)
        assert cache.get_deps("ident")["fingerprint"] == "fp-new"
    with ProofCache(tmp_path) as cache:
        assert cache.get_deps("ident")["fingerprint"] == "fp-new"


def test_foreign_schema_entries_are_invisible(tmp_path):
    entry = build_dep_entry(Depth, None, pass_fingerprint(Depth))
    foreign = dict(entry, schema=DEPS_SCHEMA_VERSION + 1)
    with ProofCache(tmp_path) as cache:
        cache.put_deps("ok", entry)
        cache._conn.execute(
            "INSERT INTO deps (key, schema, value, updated_at) "
            "VALUES ('future', ?, ?, 0)",
            (DEPS_SCHEMA_VERSION + 1, json.dumps(foreign)),
        )
    with ProofCache(tmp_path) as cache:
        assert cache.get_deps("future") is None
        assert cache.get_deps("ok") == entry
        assert "future" not in cache.deps_snapshot()
        # prune reaps foreign-schema rows
        cache.put_pass("p", {"verified": True})
        cache.prune(10)
        row = cache._conn.execute(
            "SELECT COUNT(*) FROM deps WHERE key = 'future'").fetchone()
        assert row[0] == 0
