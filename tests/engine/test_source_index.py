"""The source index against the ``inspect``/``ast`` readings it replaced.

Cache keys and dependency entries are a contract: reading sources through
the index must give byte-identical pass sources, toolchain and rule-set
hashes, and import lists.  Each reference below is computed the way the
engine computed it before the index existed.
"""

import ast
import hashlib
import importlib
import inspect
import os
import shutil
import sys
from pathlib import Path

import pytest

from repro.engine import fingerprint
from repro.engine.fingerprint import (
    ENGINE_VERSION,
    TOOLCHAIN_MODULES,
    module_source_path,
    pass_fingerprint,
    pass_source,
    rule_set_fingerprint,
    source_file,
    toolchain_fingerprint,
)
from repro.incremental.deps import import_closure
from repro.passes import ALL_VERIFIED_PASSES, EXTENSION_PASSES, buggy

BUGGY_PASSES = [
    value for name, value in sorted(vars(buggy).items())
    if name.startswith("Buggy") and isinstance(value, type)
]
PASSES = list(ALL_VERIFIED_PASSES) + list(EXTENSION_PASSES) + BUGGY_PASSES
PACKAGE_DIR = Path(fingerprint.__file__).resolve().parents[1]


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _reference_class_source(pass_class):
    """The class segment cut from ``inspect.getsource`` of its module."""
    source = inspect.getsource(sys.modules[pass_class.__module__])
    lines = source.splitlines(keepends=True)

    def find(body, parts):
        for node in body:
            if isinstance(node, ast.ClassDef) and node.name == parts[0]:
                return node if len(parts) == 1 else find(node.body, parts[1:])
        return None

    node = find(ast.parse(source).body, pass_class.__qualname__.split("."))
    if node.end_lineno == node.lineno:
        return lines[node.lineno - 1][node.col_offset:node.end_col_offset]
    return "".join([lines[node.lineno - 1][node.col_offset:],
                    *lines[node.lineno:node.end_lineno - 1],
                    lines[node.end_lineno - 1][:node.end_col_offset]])


def _reference_imports(path, text):
    """Every ``repro.*`` name a full ``ast.walk`` finds in import statements."""
    found = set()

    def note(name):
        if name and (name == "repro" or name.startswith("repro.")):
            found.add(name)

    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                note(alias.name)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = fingerprint._relative_base(path, node.level, base)
            note(base)
            for alias in node.names:
                if base:
                    note(f"{base}.{alias.name}")
    return tuple(sorted(found))


@pytest.mark.parametrize("pass_class", PASSES, ids=lambda cls: cls.__name__)
def test_pass_source_matches_the_inspect_reading(pass_class):
    assert pass_source(pass_class) == _reference_class_source(pass_class)


def test_toolchain_fingerprint_matches_the_inspect_reading():
    sources = "\n".join(
        inspect.getsource(importlib.import_module(name))
        for name in TOOLCHAIN_MODULES
        if name not in ("repro.symbolic.rules", "repro.symbolic.commutation"))
    assert toolchain_fingerprint() == _sha256(
        f"engine-v{ENGINE_VERSION}\n{rule_set_fingerprint()}\n{sources}")


def test_every_toolchain_module_resolves_to_a_file():
    for name in TOOLCHAIN_MODULES:
        path = module_source_path(name)
        assert path is not None, name
        assert os.path.isfile(path), name


#: Modules that ``repro.verify.verifier`` reaches through its imports but
#: that decide no verdict, so they stay out of the toolchain hash.
NOT_HASHED = {
    "repro.verify": "package init: re-exports only",
    "repro.prover": "package init: re-exports only",
    "repro.verify.bounded": "bounded validation sweep, reached only through "
                            "the package re-exports; verify_pass never calls it",
}


def test_verdict_modules_are_all_hashed():
    # The scan includes function-local imports, so a lazily imported prover
    # module is found as well as an eager one.
    closure = import_closure("repro.verify.verifier")
    unhashed = sorted(
        name for name in closure
        if name.startswith(("repro.smt", "repro.prover", "repro.verify"))
        and name not in TOOLCHAIN_MODULES and name not in NOT_HASHED)
    assert unhashed == []
    assert set(NOT_HASHED) <= closure  # no stale allow-list entries


@pytest.fixture
def package_copy(tmp_path, monkeypatch):
    """A copy of the package that the source index reads instead."""
    copy = tmp_path / "repro"
    shutil.copytree(PACKAGE_DIR, copy, ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(fingerprint, "_PACKAGE_DIR", str(copy))
    fingerprint.reset_memos()
    yield copy
    fingerprint.reset_memos()


@pytest.mark.parametrize("relpath, header", [
    ("verify/discharge.py", "class Discharger:\n"),
    ("smt/arena.py", "class ArenaCongruenceClosure:\n"),
    ("prover/portfolio.py", "class PortfolioBackend(SolverBackend):\n"),
], ids=["Discharger", "ArenaCongruenceClosure", "PortfolioBackend"])
def test_editing_a_prover_class_moves_the_toolchain_hash(package_copy, relpath, header):
    before = toolchain_fingerprint()
    path = package_copy / relpath
    text = path.read_text()
    assert text.count(header) == 1
    path.write_text(text.replace(header, header + "    edited = True\n"))
    fingerprint.reset_memos()
    assert toolchain_fingerprint() != before


def test_rule_set_fingerprint_matches_the_inspect_reading():
    from repro.symbolic import commutation

    assert rule_set_fingerprint() == _sha256(
        fingerprint._render_circuit_rules() + "\n" + inspect.getsource(commutation))


@pytest.mark.parametrize(
    "path", sorted(PACKAGE_DIR.rglob("*.py")),
    ids=lambda p: str(p.relative_to(PACKAGE_DIR)))
def test_import_scan_matches_a_full_ast_walk(path):
    source = source_file(str(path))
    assert source.imports == _reference_imports(source.path, source.text)


def test_import_scan_skips_strings_and_comments(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        '"""Docstring that mentions\n'
        'from repro.dag import DAGCircuit\n'
        '"""\n'
        "# import repro.bench\n"
        "x = 'import repro.transpiler'; import repro.qasm\n"
        "y = \"#\"; import repro.coupling\n"
        "if x: from repro.errors import (  # a comment (with parens)\n"
        "    ReproError,\n"
        ")\n"
        "def f():\n"
        "    from repro.circuit import \\\n"
        "        gate\n"
    )
    assert source_file(str(path)).imports == (
        "repro.circuit", "repro.circuit.gate", "repro.coupling", "repro.errors",
        "repro.errors.ReproError", "repro.qasm")


def test_module_paths_resolve_without_importing():
    before = set(sys.modules)
    assert module_source_path("repro.dag.converters") == \
        os.path.realpath(PACKAGE_DIR / "dag" / "converters.py")
    assert module_source_path("repro.transpiler") == \
        os.path.realpath(PACKAGE_DIR / "transpiler" / "__init__.py")
    assert module_source_path("repro.verify.passes.AnalysisPass") is None
    assert set(sys.modules) == before


def test_edited_file_is_read_again(tmp_path):
    path = tmp_path / "edited.py"
    path.write_text("class A:\n    pass\n")
    first = source_file(str(path))
    assert source_file(str(path)) is first
    path.write_text("class A:\n    x = 1\n\n\nclass B:\n    pass\n")
    os.utime(path, ns=(first.stamp[0] + 10**9, first.stamp[0] + 10**9))
    second = source_file(str(path))
    assert second is not first
    assert set(second.classes) == {"A", "B"}
    fingerprint.reset_source_index()
    assert source_file(str(path)) is not second


def test_editing_a_class_decorator_moves_the_pass_fingerprint(tmp_path, monkeypatch):
    """A decorator is part of the pass's source, as ``inspect`` reads it:
    editing one must re-prove the pass, not serve the old verdict warm."""
    module = tmp_path / "decorated_passes.py"
    template = (
        "def tag(label):\n"
        "    return lambda cls: cls\n"
        "\n"
        "\n"
        "@tag({label!r})\n"
        "class Decorated:\n"
        "    def run(self, dag):\n"
        "        return dag\n"
    )
    module.write_text(template.format(label="before"))
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        decorated = importlib.import_module("decorated_passes").Decorated
        assert pass_source(decorated) == inspect.getsource(decorated).rstrip("\n")
        before = pass_fingerprint(decorated)
        stamp = os.stat(module).st_mtime_ns
        module.write_text(template.format(label="after"))
        os.utime(module, ns=(stamp + 10**9, stamp + 10**9))
        assert pass_fingerprint(decorated) != before
    finally:
        sys.modules.pop("decorated_passes", None)
        fingerprint.reset_source_index()
