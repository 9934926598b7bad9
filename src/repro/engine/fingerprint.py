"""Content-addressed fingerprints for passes, subgoals, and the rule set.

The verification engine memoizes proofs: a proof obligation is re-used from
the cache only when *everything* it depends on is unchanged.  This module
computes the stable SHA-256 keys that make this sound:

* :func:`pass_fingerprint` — hashes the pass's source code, its constructor
  arguments, and the active rule set.  Editing the pass (or the rules it is
  verified against) changes the key, so stale proofs are never hit.
* :func:`subgoal_fingerprint` — hashes one proof obligation (lhs/rhs element
  sequences plus the path facts) after *canonicalising the symbolic uids*.
  Fresh symbolic values draw uids from a process-global counter, so the same
  pass verified twice (or in two worker processes) produces different raw
  uids; renaming them in order of first appearance makes the key stable.
* :func:`rule_set_fingerprint` / :func:`toolchain_fingerprint` — hash the
  shipped rewrite rules, the commutation semantics, and the discharge/solver
  implementation, so changing the prover invalidates every cached proof.

Key-derivation invariants (what ``docs/caching.md`` documents and the
incremental layer relies on):

1. **Everything a verdict depends on is hashed.**  A pass key covers exactly
   ``(ENGINE_VERSION, toolchain_fingerprint(), solver backend, module,
   qualname, class source, canonicalised constructor kwargs, declared
   data-file digests)`` — nothing else.  Constructor kwargs are rendered *structurally* (a
   coupling map hashes as its edge set, however it was built), and a pass
   that reads non-Python inputs can declare them via a
   ``data_dependencies`` class attribute whose file contents are folded
   into the key (:func:`data_dependency_digest`).  The file set that can
   change a pass key is therefore the pass's own module plus the
   toolchain/rule modules listed in :data:`TOOLCHAIN_MODULES`, plus any
   declared or kwarg-carried data files; this is the contract
   :mod:`repro.incremental.deps` builds its dependency index on.
2. **Keys are deterministic across processes.**  Symbolic uids are renamed
   in order of first appearance before hashing, so the same obligation
   produced in two worker processes (with different raw uid counters) maps
   to the same subgoal key:

   >>> renamer = _UidRenamer()
   >>> [renamer.rename(uid) for uid in ["g7", "seg12", "g7"]]
   ['g#0', 'seg#1', 'g#0']
   >>> _UidRenamer().rename_embedded("(int31+1)")
   '(int#0+1)'

3. **Cosmetic changes do not invalidate.**  Subgoal descriptions are
   excluded from :func:`normalize_subgoal`; path facts are sorted by a
   uid-masked shape key so recording order cannot perturb the hash.
4. **Version bumps invalidate everything.**  ``ENGINE_VERSION`` is folded
   into every key; bumping it orphans every existing cache entry at once.
"""

from __future__ import annotations

import ast
import hashlib
import importlib.util
import os
import re
import sys
import tokenize
from typing import Dict, Iterable, Optional, Tuple

from repro.circuit.gate import Gate
from repro.verify.facts import Fact
from repro.verify.session import Subgoal
from repro.verify.symvalues import Segment, SymGate

#: Bump to invalidate every cache entry written by an older engine.
#: v2: pass keys additionally cover declared data-file digests.
#: v3: pass and subgoal keys additionally cover the solver backend.
ENGINE_VERSION = 3

#: Solver backend hashed into keys when the caller does not say otherwise;
#: must match what :func:`repro.prover.backend.resolve_solver` returns for
#: ``auto`` so seed-era call sites and ``--solver auto`` runs agree on keys.
DEFAULT_SOLVER = "builtin"

#: Raw uids minted by :mod:`repro.verify.symvalues` (``g3``, ``seg12``, ...).
_UID_TOKEN = re.compile(r"\b(?:g|seg|int|idx|circ)\d+\b")

#: The same tokens when embedded in underscore-joined rule names
#: (``segment_commute_rev_seg210_g206``): ``\b`` never fires next to an
#: underscore, so both boundaries are dropped — safe for rule names, whose
#: only prefix-plus-digits tokens *are* uids (digit runs are matched
#: maximally, and every uid token there ends at ``_`` or end-of-name).
_RULE_UID_TOKEN = re.compile(r"(?:g|seg|int|idx|circ)\d+")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _canon(value) -> str:
    """A deterministic textual rendering of a nested value.

    Only the shapes that occur in normalised subgoals are supported: tuples,
    lists, dicts (rendered with sorted keys), and scalar literals.
    """
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(_canon(v) for v in value) + ")"
    if isinstance(value, dict):
        items = sorted((str(k), _canon(v)) for k, v in value.items())
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(value, float):
        return repr(round(value, 12))
    return repr(value)


class _UidRenamer:
    """Rename symbolic uids to ``<prefix>#<n>`` in order of first appearance."""

    def __init__(self) -> None:
        self._map: Dict[str, str] = {}

    def rename(self, uid: str) -> str:
        canonical = self._map.get(uid)
        if canonical is None:
            prefix = uid.rstrip("0123456789") or "u"
            canonical = f"{prefix}#{len(self._map)}"
            self._map[uid] = canonical
        return canonical

    def rename_embedded(self, text: str) -> str:
        """Rename every uid token embedded in a composite string.

        Symbolic integers build composite uids like ``(int3+1)`` or
        ``size_circ7_2``; renaming the embedded tokens keeps those stable too.
        """
        return _UID_TOKEN.sub(lambda m: self.rename(m.group(0)), text)


def _freeze_gate(gate: Gate) -> Tuple:
    return ("gate", gate.name, tuple(gate.qubits), tuple(gate.params),
            gate.condition, tuple(gate.q_controls or ()))


def _freeze_element(element, renamer: _UidRenamer):
    if isinstance(element, Gate):
        return _freeze_gate(element)
    if isinstance(element, SymGate):
        return ("symgate", renamer.rename(element.uid))
    if isinstance(element, Segment):
        return ("segment", renamer.rename(element.uid))
    return ("other", repr(element))


def _freeze_fact_arg(arg, renamer: _UidRenamer):
    if isinstance(arg, (SymGate, Segment)):
        return renamer.rename(arg.uid)
    if isinstance(arg, Gate):
        return _freeze_gate(arg)
    if isinstance(arg, Fact):
        return _freeze_fact(arg, renamer)
    if isinstance(arg, tuple):
        return tuple(_freeze_fact_arg(a, renamer) for a in arg)
    if isinstance(arg, str):
        return renamer.rename_embedded(arg)
    return arg


def _freeze_fact(fact: Fact, renamer: _UidRenamer) -> Tuple:
    return (fact.kind,) + tuple(_freeze_fact_arg(a, renamer) for a in fact.args)


class _MaskingRenamer:
    """Read-only view of a renamer: known uids keep their canonical name,
    unknown uids render as ``#?`` without being assigned one."""

    def __init__(self, base: _UidRenamer) -> None:
        self._base = base

    def rename(self, uid: str) -> str:
        return self._base._map.get(uid, "#?")

    def rename_embedded(self, text: str) -> str:
        return _UID_TOKEN.sub(lambda m: self.rename(m.group(0)), text)


def _fact_shape_key(fact: Fact, renamer: _UidRenamer, value=None) -> str:
    """A recording-order-independent sort key for one fact.

    Uids already bound (by the lhs/rhs traversal) keep their canonical
    names — two same-shape facts over different lhs gates sort by those
    names, not by recording order — while still-unbound uids are masked.
    Facts can only tie when byte-identical under this rendering, in which
    case either tie order assigns interchangeable canonical ids.
    """
    return _canon((_freeze_fact(fact, _MaskingRenamer(renamer)), value))


def normalize_subgoal(subgoal: Subgoal, renamer: Optional[_UidRenamer] = None) -> Tuple:
    """A canonical, uid-independent structure describing one subgoal.

    The human-readable ``description`` is deliberately excluded: rewording a
    message must not invalidate the proof.  lhs/rhs elements are renamed in
    sequence order; path facts and assumptions are first sorted by their
    uid-masked shape, then renamed — so the key depends on neither the raw
    uid counter values nor the order the facts were recorded in.

    ``renamer`` (normally fresh) lets callers observe the raw→canonical uid
    mapping the traversal builds; :func:`subgoal_uid_map` uses it to rename
    uids embedded elsewhere (certificate rule names) consistently.
    """
    renamer = renamer if renamer is not None else _UidRenamer()
    lhs = tuple(_freeze_element(e, renamer) for e in subgoal.lhs)
    rhs = tuple(_freeze_element(e, renamer) for e in subgoal.rhs)
    facts = tuple(
        (_freeze_fact(fact, renamer), value)
        for fact, value in sorted(
            subgoal.path_facts, key=lambda fv: _fact_shape_key(fv[0], renamer, fv[1])
        )
    )
    assumptions = tuple(
        _freeze_fact(fact, renamer)
        for fact in sorted(
            subgoal.assumptions, key=lambda f: _fact_shape_key(f, renamer)
        )
    )
    metadata = {
        str(key): _freeze_fact_arg(value, renamer)
        for key, value in subgoal.metadata.items()
    }
    return (
        "subgoal",
        subgoal.kind,
        lhs,
        rhs,
        facts,
        assumptions,
        metadata,
    )


def subgoal_uid_map(subgoal: Subgoal) -> Dict[str, str]:
    """The raw→canonical uid mapping :func:`normalize_subgoal` applies.

    The mapping is a function of the subgoal's *shape*: the same obligation
    emitted in two sessions (different raw uid counters) maps each side's
    raw uids to identical canonical names.  Proof certificates use this to
    record fired-rule names (which embed raw uids) in session-independent
    form, so a certificate written today can restrict a replay tomorrow.
    """
    # Memoised per subgoal object: certificate recording and replay
    # restriction both need the map, and the subgoal is immutable once
    # enriched by the session — no point re-walking it per use.
    cached = getattr(subgoal, "_uid_map_memo", None)
    if cached is not None:
        return cached
    renamer = _UidRenamer()
    normalize_subgoal(subgoal, renamer)
    mapping = dict(renamer._map)
    subgoal._uid_map_memo = mapping
    return mapping


def rename_rule_uids(name: str, mapping: Dict[str, str]) -> str:
    """Rename every uid token embedded in one rule name via ``mapping``.

    The one place the renaming substitution lives: certificate recording
    (:func:`canonical_rule_names`) and replay restriction
    (:func:`repro.prover.methods.congruence.discharge_with_backend`) must
    rename identically or replayed proofs drop the wrong rules.
    """
    return _RULE_UID_TOKEN.sub(
        lambda m: mapping.get(m.group(0), m.group(0)), name)


def canonical_rule_names(subgoal: Subgoal, names: Iterable[str]) -> Tuple[str, ...]:
    """Rename the uids embedded in rule names to the subgoal's canonical ids."""
    mapping = subgoal_uid_map(subgoal)
    return tuple(sorted(rename_rule_uids(name, mapping) for name in names))


def subgoal_fingerprint(subgoal: Subgoal, solver: str = DEFAULT_SOLVER) -> str:
    """Stable SHA-256 key for one proof obligation.

    ``solver`` is the resolved backend name; discharge results found by
    different backends never alias (their methods, certificates, and
    failure behaviour may differ even where verdicts must not).
    """
    return _sha256(
        _canon((ENGINE_VERSION, toolchain_fingerprint(), solver,
                normalize_subgoal(subgoal)))
    )


def unit_fingerprint(pass_key: str, shard_index: int, shard_count: int) -> str:
    """Deterministic identity key for one cluster work unit.

    A whole-pass unit is identified by the pass fingerprint itself; a
    subgoal shard derives its key from the pass key plus its position in
    the shard grid, so two coordinators planning the same pending pass at
    the same split produce byte-identical unit ids — which is what makes
    shard results cacheable, mergeable, and safe to serve from whichever
    worker (original or steal) answers first.
    """
    if shard_count <= 1:
        return pass_key
    return _sha256(_canon((
        "unit", ENGINE_VERSION, pass_key, int(shard_index), int(shard_count),
    )))


# --------------------------------------------------------------------------- #
# The source index
# --------------------------------------------------------------------------- #
#: This package's name and directory: ``repro.*`` module names resolve to
#: files under it without importing anything.
_PACKAGE = __name__.partition(".")[0]
_PACKAGE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: What the import scan steps over (comments and string literals, so that
#: text inside them is never read as code) or stops at: an ``import`` or
#: ``from`` keyword that starts a statement (after a newline, ``;`` or
#: ``:``), with the rest of the statement, parenthesised or
#: backslash-continued lines included.  Every alternative starts with one of
#: ``#"'\n;:``, which lets the regex engine skip other text quickly.
_IMPORT_SCAN = re.compile(r"""
      \#[^\n]*
    | \"\"\"[^"\\]*(?:(?:\\.|"(?!""))[^"\\]*)*\"\"\"
    | '''[^'\\]*(?:(?:\\.|'(?!''))[^'\\]*)*'''
    | "[^"\\\n]*(?:\\.[^"\\\n]*)*" | '[^'\\\n]*(?:\\.[^'\\\n]*)*'
    | [\n;:][ \t]*
      (?P<stmt>(?:from|import)\b(?:[^\n;\#()\\]|\\\n|\((?:\#[^\n]*|[^)\#])*\))*)
""", re.DOTALL | re.VERBOSE)


class SourceFile:
    """What the engine reads from one source file, each part computed once.

    ``text`` is the file as :func:`inspect.getsource` returns a module;
    :attr:`classes` and :attr:`imports` are derived from it on first use.
    """

    __slots__ = ("path", "stamp", "text", "_classes", "_imports")

    def __init__(self, path: str, stamp: Tuple[int, int], text: str) -> None:
        self.path = path
        self.stamp = stamp
        self.text = text
        self._classes: Optional[Dict[str, str]] = None
        self._imports: Optional[Tuple[str, ...]] = None

    @property
    def classes(self) -> Dict[str, str]:
        """Source segment of every class, by qualname, from one parse.

        A segment runs from the ``class`` keyword to the end of the body,
        as :func:`ast.get_source_segment` would cut it — or, for a
        decorated class, from the line of its first decorator, as
        :func:`inspect.getsource` does, so that editing a decorator moves
        the key.  Slicing one shared line list keeps fingerprinting the
        whole suite around 1 ms.
        """
        if self._classes is None:
            lines = self.text.splitlines(keepends=True)
            segments: Dict[str, str] = {}

            def segment_of(node: ast.ClassDef) -> str:
                if node.decorator_list:
                    # Whole lines from the first decorator, as inspect does.
                    start, column = node.decorator_list[0].lineno, 0
                else:
                    start, column = node.lineno, node.col_offset
                if node.end_lineno == start:
                    return lines[start - 1][column:node.end_col_offset]
                first = lines[start - 1][column:]
                middle = lines[start:node.end_lineno - 1]
                last = lines[node.end_lineno - 1][:node.end_col_offset]
                return "".join([first, *middle, last])

            def walk(node: ast.AST, prefix: str) -> None:
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, ast.ClassDef):
                        qualname = f"{prefix}{child.name}"
                        segments[qualname] = segment_of(child)
                        walk(child, f"{qualname}.")
                    elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        walk(child, f"{prefix}{child.name}.<locals>.")

            walk(ast.parse(self.text), "")
            self._classes = segments
        return self._classes

    @property
    def imports(self) -> Tuple[str, ...]:
        """Every ``repro.*`` name the file's import statements mention, sorted.

        Read from the import statements alone: :data:`_IMPORT_SCAN` finds
        them and only they are parsed, never the whole module.  ``from
        package import name`` is ambiguous between a submodule and an
        attribute, so both readings are listed (the dependency walk keeps
        whichever names a module file).  Relative imports resolve against
        the file's path.
        """
        if self._imports is None:
            found = set()

            def note(name: Optional[str]) -> None:
                if name and (name == _PACKAGE or name.startswith(_PACKAGE + ".")):
                    found.add(name)

            for match in _IMPORT_SCAN.finditer("\n" + self.text):
                statement = match.group("stmt")
                if statement is None:
                    continue
                try:
                    nodes = ast.parse(statement.rstrip()).body
                except SyntaxError:
                    continue  # "from" inside an expression, not an import
                for node in nodes:
                    if isinstance(node, ast.Import):
                        for alias in node.names:
                            note(alias.name)
                    elif isinstance(node, ast.ImportFrom):
                        base = node.module or ""
                        if node.level:
                            base = _relative_base(self.path, node.level, base)
                        note(base)
                        for alias in node.names:
                            if base:
                                note(f"{base}.{alias.name}")
            self._imports = tuple(sorted(found))
        return self._imports


def _relative_base(path: str, level: int, base: str) -> str:
    """Resolve a ``from . import x``-style module name from the file path."""
    parts = path.split(os.sep)
    try:
        root = parts.index(_PACKAGE)
    except ValueError:
        return base
    package = parts[root:-1]  # drop the file name
    ascend = level - 1
    if ascend:
        package = package[:-ascend] if ascend < len(package) else []
    if not package:
        return base
    prefix = ".".join(package)
    return f"{prefix}.{base}" if base else prefix


#: path -> its :class:`SourceFile`, replaced when the file's (mtime, size)
#: stamp moves.  Both tables are cleared by :func:`reset_source_index`.
_SOURCE_INDEX: Dict[str, SourceFile] = {}
#: module name -> normalised source path (``None``: no ``.py`` file).
_MODULE_PATHS: Dict[str, Optional[str]] = {}


def _normalize(path: str) -> str:
    return os.path.realpath(os.path.abspath(path))


def source_file(path: str) -> Optional[SourceFile]:
    """The indexed :class:`SourceFile` for ``path``, or ``None`` if unreadable.

    One per process per ``(path, mtime_ns, size)``: a file is read once
    however many fingerprints and dependency walks need it, and read
    again after an edit.
    """
    try:
        status = os.stat(path)
    except OSError:
        return None
    stamp = (status.st_mtime_ns, status.st_size)
    entry = _SOURCE_INDEX.get(path)
    if entry is None or entry.stamp != stamp:
        try:
            # Decoded as the import system and linecache decode it.
            with tokenize.open(path) as handle:
                text = handle.read()
        except (OSError, SyntaxError, UnicodeDecodeError):
            return None
        if text and not text.endswith("\n"):
            text += "\n"  # as linecache, hence inspect.getsource, does
        entry = _SOURCE_INDEX[path] = SourceFile(path, stamp, text)
    return entry


def module_source_path(module_name: str) -> Optional[str]:
    """The normalised ``.py`` file backing ``module_name``, or ``None``.

    ``repro.*`` names resolve against the package directory (a package's
    ``__init__.py`` before a same-named module, as the import system
    does), so nothing is imported or executed.  Other names (pass modules
    outside the package) use the imported module's ``__file__``, falling
    back to :func:`importlib.util.find_spec`, which imports their parent
    packages.
    """
    if module_name in _MODULE_PATHS:
        return _MODULE_PATHS[module_name]
    head, _, rest = module_name.partition(".")
    path = None
    if head == _PACKAGE:
        base = os.path.join(_PACKAGE_DIR, *rest.split(".")) if rest else _PACKAGE_DIR
        for candidate in (os.path.join(base, "__init__.py"), base + ".py"):
            if os.path.isfile(candidate):
                path = candidate
                break
    else:
        module = sys.modules.get(module_name)
        path = getattr(module, "__file__", None) if module is not None else None
        if path is None:
            try:
                spec = importlib.util.find_spec(module_name)
            except (ImportError, AttributeError, ValueError):
                spec = None
            path = spec.origin if spec is not None else None
    path = _normalize(path) if path is not None and path.endswith(".py") else None
    _MODULE_PATHS[module_name] = path
    return path


def reset_source_index() -> None:
    """Forget every indexed file and module resolution (after reloads)."""
    _SOURCE_INDEX.clear()
    _MODULE_PATHS.clear()


def module_text(module_name: str) -> str:
    """The source text of ``module_name`` (``""`` when it has no file)."""
    path = module_source_path(module_name)
    source = source_file(path) if path is not None else None
    return source.text if source is not None else ""


# --------------------------------------------------------------------------- #
# Rule set / toolchain
# --------------------------------------------------------------------------- #
_rule_set_memo: Optional[str] = None
_toolchain_memo: Optional[str] = None


def _render_circuit_rules() -> str:
    from repro.symbolic.rules import default_circuit_rules

    parts = []
    for rule in default_circuit_rules():
        parts.append(_canon((
            rule.name,
            rule.kind,
            tuple(_freeze_gate(g) for g in rule.lhs),
            tuple(_freeze_gate(g) for g in rule.rhs),
            rule.num_qubits,
        )))
    return "\n".join(parts)


def rule_set_fingerprint() -> str:
    """Hash of the active rewrite-rule set and the commutation semantics."""
    global _rule_set_memo
    if _rule_set_memo is None:
        _rule_set_memo = _sha256(
            _render_circuit_rules() + "\n"
            + module_text("repro.symbolic.commutation")
        )
    return _rule_set_memo


#: The modules whose source text feeds :func:`toolchain_fingerprint`, in
#: hash order.  Each is hashed whole, read from the source index without
#: importing it.
TOOLCHAIN_MODULES: Tuple[str, ...] = (
    # obligation generation
    "repro.verify.verifier", "repro.verify.preprocessor",
    "repro.verify.session", "repro.verify.symvalues",
    "repro.verify.templates", "repro.verify.facts", "repro.verify.passes",
    "repro.utility.analysis_ops", "repro.utility.circuit_ops",
    "repro.utility.coupling_ops", "repro.utility.layout_selection",
    "repro.utility.merge", "repro.utility.transforms",
    # obligation discharge (the pluggable prover core)
    "repro.verify.discharge", "repro.symbolic.equivalence",
    "repro.smt.terms", "repro.smt.solver", "repro.smt.congruence",
    "repro.smt.arena", "repro.smt.ematch",
    "repro.prover.backend", "repro.prover.builtin",
    "repro.prover.boundedbackend", "repro.prover.z3backend",
    "repro.prover.portfolio",
    "repro.prover.rulebase", "repro.prover.certificate",
    "repro.prover.methods", "repro.prover.methods.syntactic",
    "repro.prover.methods.structural", "repro.prover.methods.sequence",
    "repro.prover.methods.congruence",
    # counterexample confirmation (cached alongside the verdict)
    "repro.verify.counterexample",
    # the rule set (hashed separately via rule_set_fingerprint)
    "repro.symbolic.rules", "repro.symbolic.commutation",
)

#: The toolchain modules :func:`rule_set_fingerprint` covers instead.
_RULE_SET_MODULES = ("repro.symbolic.rules", "repro.symbolic.commutation")


def toolchain_fingerprint() -> str:
    """Hash of everything a cached verdict depends on besides the pass.

    Editing any module in :data:`TOOLCHAIN_MODULES` changes this hash and
    therefore every cache key, so a fixed template or a strengthened
    obligation can never be masked by a stale cached verdict.  The sources
    come from the source index, so hashing imports no prover module.
    """
    global _toolchain_memo
    if _toolchain_memo is None:
        sources = "\n".join(
            module_text(name) for name in TOOLCHAIN_MODULES
            if name not in _RULE_SET_MODULES
        )
        _toolchain_memo = _sha256(
            f"engine-v{ENGINE_VERSION}\n{rule_set_fingerprint()}\n{sources}"
        )
    return _toolchain_memo


def reset_memos() -> None:
    """Forget every memoised fingerprint and the source index.

    Long-lived processes (``repro watch``, the daemon's background watcher)
    call this after reloading an edited module: the rule-set and toolchain
    hashes are memoised per process, so without a reset a re-fingerprinted
    pass would be keyed against the *old* prover and stale proofs could be
    served for a live edit.
    """
    global _rule_set_memo, _toolchain_memo
    _rule_set_memo = None
    _toolchain_memo = None
    reset_source_index()


# --------------------------------------------------------------------------- #
# Pass-level fingerprints
# --------------------------------------------------------------------------- #
def _canon_kwarg(value):
    """Canonicalise one constructor argument for hashing.

    Coupling maps are the only structured arguments the passes take today;
    anything with an ``edges``/``num_qubits`` shape is rendered structurally,
    plain values by repr.
    """
    edges = getattr(value, "edges", None)
    num_qubits = getattr(value, "num_qubits", None)
    if edges is not None and num_qubits is not None and not callable(edges):
        return ("coupling", num_qubits, tuple(tuple(e) for e in edges))
    if isinstance(value, (tuple, list)):
        return tuple(_canon_kwarg(v) for v in value)
    if isinstance(value, dict):
        return {str(k): _canon_kwarg(v) for k, v in value.items()}
    return repr(value)


def indexed_class_source(cls) -> Optional[str]:
    """The class's segment of its module's indexed source, or ``None``.

    The segment runs from ``class`` (or the first decorator) to the end of
    the body; ``None`` when the module has no readable file or the file has
    no such class.
    """
    path = module_source_path(cls.__module__)
    source = source_file(path) if path is not None else None
    if source is None:
        return None
    try:
        return source.classes.get(cls.__qualname__)
    except (SyntaxError, ValueError):
        return None


def pass_source(pass_class) -> Optional[str]:
    """The pass's source text, or ``None`` when it cannot be recovered.

    The class body is sliced out of its module's indexed source
    (:func:`indexed_class_source`).  Dynamically created classes
    (``exec``/REPL) have no retrievable source; the engine treats them as
    uncacheable rather than risking a collision.
    """
    segment = indexed_class_source(pass_class)
    if segment is not None:
        return segment
    import inspect

    try:
        return inspect.getsource(pass_class)
    except (OSError, TypeError):
        return None


def data_dependency_digest(pass_class) -> Tuple:
    """Content digests of the pass's declared data files, for hashing.

    Passes that read non-Python inputs (device-map files, recorded suites)
    can declare them via a ``data_dependencies`` class attribute (an
    iterable of paths).  Their *content* is folded into the pass key here,
    so editing a declared data file invalidates the cached proof exactly
    like editing the source would; a missing file hashes as absent rather
    than erroring (the verification itself will surface the problem).
    """
    declared = getattr(pass_class, "data_dependencies", None)
    if not declared:
        return ()
    digests = []
    for path in declared:
        path = os.fspath(path)
        try:
            with open(path, "rb") as handle:
                digest = hashlib.sha256(handle.read()).hexdigest()
        except OSError:
            digest = "<missing>"
        digests.append((path, digest))
    return tuple(sorted(digests))


def pass_fingerprint(pass_class, pass_kwargs: Optional[dict] = None,
                     solver: str = DEFAULT_SOLVER) -> Optional[str]:
    """Stable SHA-256 key for verifying one pass, or ``None`` if uncacheable.

    ``solver`` joins the key: a verdict is only reusable for the backend
    that produced it (per-subgoal methods and certificates differ across
    backends even where the verdicts are required to agree).
    """
    source = pass_source(pass_class)
    if source is None:
        return None
    kwargs = {
        str(key): _canon_kwarg(value)
        for key, value in (pass_kwargs or {}).items()
    }
    return _sha256(_canon((
        ENGINE_VERSION,
        toolchain_fingerprint(),
        solver,
        pass_class.__module__,
        pass_class.__qualname__,
        source,
        kwargs,
        data_dependency_digest(pass_class),
    )))
