"""Outside-in layer ledger: self time and call counts of ``repro`` functions.

The ledger never edits the package.  It wraps named functions and methods
from outside and rebinds every ``repro.*`` module attribute that *is* the
wrapped function, so ``from repro.verify.preprocessor import analyze_pass``
in another module is traced too.  Modules imported after :func:`install`
are patched the moment they finish executing, through a meta-path finder
that also records the time spent executing lazily imported ``repro``
modules.

A layer's self time is its duration minus the time of the wrapped calls
nested inside it, so the self times of one thread never overlap and their
sum is the attributed part of the traced interval.
"""

from __future__ import annotations

import contextlib
import functools
import importlib.abc
import importlib.machinery
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional


class Target(NamedTuple):
    """One wrapped callable: ``module`` + ``qualname`` -> ledger ``layer``."""

    module: str
    qualname: str
    layer: str
    #: Optional ``result -> int`` whose values are summed under ``<layer>.<extra>``.
    extra: Optional[str] = None
    measure: Optional[Callable] = None


def target(module: str, qualname: str, layer: Optional[str] = None, **kwargs) -> Target:
    """A :class:`Target` whose layer defaults to the dotted name without ``repro.``."""
    return Target(module, qualname, layer or f"{module[len('repro.'):]}.{qualname}", **kwargs)


PIPELINE_PASSES = (
    ("repro.passes.layout", "TrivialLayout"),
    ("repro.passes.layout", "ApplyLayout"),
    ("repro.passes.basis", "Unroller"),
    ("repro.passes.routing", "LookaheadSwap"),
    ("repro.passes.optimization", "Optimize1qGates"),
    ("repro.passes.optimization", "CXCancellation"),
)

#: Every traced layer.  Verify-side and compile-side entry points are all
#: installed in every traced process; a layer a workload never reaches
#: reports zero calls.
TARGETS: List[Target] = [
    target("repro.cli", "main"),
    # verify side
    target("repro.engine.driver", "verify_passes"),
    target("repro.engine.driver", "resolve_pending"),
    target("repro.verify.preprocessor", "analyze_pass"),
    target("repro.verify.verifier", "verify_pass"),
    target("repro.verify.session", "PathExplorer.explore",
           extra="paths", measure=len),
    target("repro.verify.discharge", "Discharger.__call__",
           layer="verify.discharge.Discharger"),
    target("repro.engine.fingerprint", "pass_fingerprint"),
    target("repro.engine.fingerprint", "subgoal_fingerprint"),
    target("repro.engine.fingerprint", "toolchain_fingerprint"),
    target("repro.engine.cache", "open_proof_cache"),
    target("repro.engine.cache", "ProofCache.get_pass"),
    target("repro.engine.cache", "ProofCache.put_pass"),
    target("repro.engine.cache", "ProofCache.put_subgoal"),
    target("repro.engine.cache", "ProofCache.put_certificate"),
    target("repro.engine.cache", "ProofCache.put_deps"),
    target("repro.engine.cache", "ProofCache.close"),
    target("repro.incremental.deps", "build_dep_entry"),
    target("repro.telemetry.stats", "StatsRecorder.finalize_and_save"),
    target("repro.verify.report", "to_text"),
    target("repro.verify.report", "to_json"),
    # compile side
    target("repro.qasm.parser", "parse_qasm"),
    target("repro.dag.converters", "circuit_to_dag"),
    target("repro.dag.converters", "dag_to_circuit"),
    target("repro.transpiler.passmanager", "PassManager.run"),
    target("repro.transpiler.wrapper", "VerifiedPassWrapper.run"),
]
TARGETS += [target(module, f"{name}.run") for module, name in PIPELINE_PASSES]
TARGETS += [target("repro.transpiler.baseline_passes", f"Baseline{name}.run")
            for _, name in PIPELINE_PASSES]

#: Span recording time spent executing ``repro`` modules imported lazily,
#: i.e. after the traced process's start-up import has finished.
LAZY_IMPORT = "startup.lazy_import"


class Ledger:
    """Per-layer self seconds and call counts, accumulated in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.extras: Dict[str, int] = defaultdict(int)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self) -> tuple:
        frame = [0.0]
        stack = self._stack()
        stack.append(frame)
        return stack, frame, self.clock()

    def _leave(self, name: str, stack: list, frame: list, started: float) -> None:
        duration = self.clock() - started
        stack.pop()
        self.self_s[name] += duration - frame[0]
        self.calls[name] += 1
        if stack:
            stack[-1][0] += duration

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the enclosed interval under ``name``."""
        state = self._enter()
        try:
            yield
        finally:
            self._leave(name, *state)

    def wrap(self, spec: Target, function: Callable) -> Callable:
        name = spec.layer
        measure = spec.measure
        extra = f"{name}.{spec.extra}" if spec.extra else None

        @functools.wraps(function)
        def traced(*args, **kwargs):
            state = self._enter()
            try:
                result = function(*args, **kwargs)
            finally:
                self._leave(name, *state)
            if measure is not None:
                self.extras[extra] += measure(result)
            return result

        traced.__ledger_original__ = function
        return traced

    def snapshot(self) -> dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "extras": dict(self.extras)}


def diff(after: dict, before: dict) -> dict:
    """Per-key difference of two :meth:`Ledger.snapshot` results."""
    return {
        part: {key: value - before[part].get(key, 0)
               for key, value in after[part].items()}
        for part in after
    }


# --------------------------------------------------------------------------- #
# installation
# --------------------------------------------------------------------------- #
def _rebind_everywhere(original: Callable, wrapped: Callable) -> None:
    """Point every loaded ``repro.*`` module attribute that is ``original`` at ``wrapped``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        namespace = getattr(module, "__dict__", {})
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = wrapped


def _patch(ledger: Ledger, spec: Target, module) -> None:
    owner = module
    *path, attr = spec.qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if getattr(original, "__ledger_original__", None) is not None:
        return
    wrapped = ledger.wrap(spec, original)
    setattr(owner, attr, wrapped)
    if not path:
        _rebind_everywhere(original, wrapped)


class _PatchingFinder(importlib.abc.MetaPathFinder):
    """Finds ``repro`` modules as usual and patches their targets after exec."""

    def __init__(self, ledger: Ledger, by_module: Dict[str, List[Target]]) -> None:
        self.ledger = ledger
        self.by_module = by_module
        self.lazy = False

    def find_spec(self, fullname, path=None, target=None):
        if not (fullname == "repro" or fullname.startswith("repro.")):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None or not hasattr(spec.loader, "exec_module"):
            return spec
        execute = spec.loader.exec_module

        def exec_module(module):
            if self.lazy:
                with self.ledger.span(LAZY_IMPORT):
                    execute(module)
            else:
                execute(module)
            for wanted in self.by_module.get(module.__name__, ()):
                _patch(self.ledger, wanted, module)

        spec.loader.exec_module = exec_module
        return spec


def install(ledger: Ledger, targets: Iterable[Target] = TARGETS) -> _PatchingFinder:
    """Wrap ``targets`` now (loaded modules) and on import (the rest).

    Returns the finder; set its ``lazy`` flag once start-up imports are done
    so that later ``repro`` imports are recorded under :data:`LAZY_IMPORT`.
    """
    by_module: Dict[str, List[Target]] = defaultdict(list)
    for spec in targets:
        by_module[spec.module].append(spec)
    for name, specs in by_module.items():
        module = sys.modules.get(name)
        if module is not None:
            for spec in specs:
                _patch(ledger, spec, module)
    finder = _PatchingFinder(ledger, by_module)
    sys.meta_path.insert(0, finder)
    return finder
