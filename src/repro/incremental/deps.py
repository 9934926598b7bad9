"""The dependency index: which files can change which cache keys.

A pass fingerprint (:func:`repro.engine.fingerprint.pass_fingerprint`)
hashes the pass's class source, its canonicalised constructor kwargs, and
the toolchain/rule-set hash.  The set of files whose edit can change that
key is therefore *statically known*: the pass's own module, every
intra-package module it transitively imports (conservative — an import can
only widen the set, never miss the module the class source lives in), and
the toolchain modules listed in
:data:`repro.engine.fingerprint.TOOLCHAIN_MODULES`.

This module computes that file set by walking the import graph over the
engine's source index (import statements read from the files; nothing is
imported or executed), and defines the *dependency entry* the proof store
persists in its schema-versioned ``deps`` table:

``identity key`` → ``{"schema": ..., "fingerprint": ..., "module": ...,
"qualname": ..., "paths": [...]}``

where the identity key names a *configuration* (class + constructor kwargs)
independently of its source text.  The identity key is the stable handle an
edit cannot change; the fingerprint recorded under it is the cache key the
configuration verified to last time.  ``verify_passes`` records entries at
verification time; :mod:`repro.incremental.detect` consumes them.
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import Dict, List, Optional, Set, Tuple

from repro.engine.fingerprint import (
    TOOLCHAIN_MODULES,
    _canon,
    _canon_kwarg,
    _sha256,
    module_source_path,
    reset_source_index,
    source_file,
)
from repro.incremental.detect import normalize_path as _normalize

#: Bump when the dependency-entry layout changes incompatibly; rows
#: written under another schema are ignored (and rewritten on the next
#: verification) rather than misread.
DEPS_SCHEMA_VERSION = 1


def import_closure(module_name: str) -> Set[str]:
    """Transitive intra-package import closure of ``module_name`` (inclusive).

    Only ``repro.*`` modules take part: the stdlib and third-party
    dependencies are part of the interpreter environment, not of the
    watched source tree.  Each module's imports come from the source
    index (:class:`~repro.engine.fingerprint.SourceFile`), and a name
    counts only if it resolves to a module file.
    """
    seen: Set[str] = set()
    queue = [module_name]
    while queue:
        name = queue.pop()
        if name in seen:
            continue
        path = module_source_path(name)
        if path is None:
            continue
        seen.add(name)
        source = source_file(path)
        if source is None:
            continue
        for imported in source.imports:
            if imported not in seen and module_source_path(imported) is not None:
                queue.append(imported)
    return seen


_toolchain_paths_memo: Optional[Tuple[str, ...]] = None


def toolchain_dependency_paths() -> Tuple[str, ...]:
    """Source files of every module the toolchain fingerprint hashes.

    Includes ``engine/fingerprint.py`` itself: ``ENGINE_VERSION`` and the
    canonicalisation rules live there, so editing it can change every key.
    """
    global _toolchain_paths_memo
    if _toolchain_paths_memo is None:
        paths = {module_source_path("repro.engine.fingerprint")}
        paths.update(module_source_path(name) for name in TOOLCHAIN_MODULES)
        paths.discard(None)
        _toolchain_paths_memo = tuple(sorted(paths))
    return _toolchain_paths_memo


def reset_memos() -> None:
    """Forget memoised import walks, toolchain paths and the source index."""
    global _toolchain_paths_memo
    _toolchain_paths_memo = None
    _module_dependency_paths.cache_clear()
    reset_source_index()


@lru_cache(maxsize=None)
def _module_dependency_paths(module_name: str) -> Tuple[str, ...]:
    """The dependency file set shared by every pass in ``module_name``.

    Memoised per module: a suite's passes cluster into a handful of
    modules, and re-walking the import closure once per *pass* dominated
    cold resolution.  Dropped by :func:`reset_memos` after reloads.
    """
    paths: Set[str] = set(toolchain_dependency_paths())
    for name in import_closure(module_name):
        path = module_source_path(name)
        if path is not None:
            paths.add(path)
    return tuple(sorted(paths))


def pass_dependency_paths(pass_class) -> Tuple[str, ...]:
    """Every file whose edit can change ``pass_class``'s cache key.

    The union of the pass module's transitive intra-package import closure
    and the toolchain paths.  Deliberately conservative: a file in this set
    that does not actually feed the fingerprint costs one redundant
    fingerprint check on edit (which then hits the cache); a file missing
    from this set would let a stale verdict survive an edit.
    """
    return _module_dependency_paths(pass_class.__module__)


def kwarg_data_paths(pass_kwargs: Optional[Dict]) -> Tuple[str, ...]:
    """Data files the constructor arguments were loaded from.

    Values carrying a ``source_path`` attribute (file-backed coupling maps
    from :func:`repro.coupling.devices.load_device_map`) contribute it;
    nested lists/tuples/dicts are walked.  These are *data* dependencies:
    the cache key already covers their content (kwargs hash structurally),
    so the only job here is getting the file into the watchable surface.
    """
    found: Set[str] = set()

    def walk(value) -> None:
        source = getattr(value, "source_path", None)
        if isinstance(source, str):
            found.add(_normalize(source))
        if isinstance(value, (list, tuple)):
            for item in value:
                walk(item)
        elif isinstance(value, dict):
            for item in value.values():
                walk(item)

    for value in (pass_kwargs or {}).values():
        walk(value)
    return tuple(sorted(found))


def class_data_paths(pass_class) -> Tuple[str, ...]:
    """Data files the pass itself declares via ``data_dependencies``.

    Their content feeds the pass fingerprint
    (:func:`repro.engine.fingerprint.data_dependency_digest`), so an edit
    both moves the key *and* — through the dependency index built here —
    marks the configuration stale without re-fingerprinting anything else.
    """
    declared = getattr(pass_class, "data_dependencies", None) or ()
    return tuple(sorted(_normalize(os.fspath(path)) for path in declared))


def identity_key(pass_class, pass_kwargs: Optional[Dict] = None) -> str:
    """Stable key for one *configuration*, independent of its source text.

    Hashes the class's dotted name and canonicalised constructor kwargs —
    exactly the parts of :func:`~repro.engine.fingerprint.pass_fingerprint`
    an edit cannot change — so an edited pass keeps its identity while its
    fingerprint moves.
    """
    kwargs = {
        str(key): _canon_kwarg(value)
        for key, value in (pass_kwargs or {}).items()
    }
    return _sha256(_canon((
        "identity",
        pass_class.__module__,
        pass_class.__qualname__,
        kwargs,
    )))


def build_dep_entry(pass_class, pass_kwargs: Optional[Dict],
                    fingerprint: str, solver: str = "builtin") -> Dict[str, object]:
    """The persisted dependency record for one verified configuration.

    ``paths`` is the union of the Python-source surface
    (:func:`pass_dependency_paths`) and the configuration's *data* files —
    device maps the kwargs were loaded from, suites the pass declares —
    so editing a data file invalidates the right passes exactly like
    editing source does.  ``solver`` names the backend the recorded
    fingerprint was derived under; a run with a different ``--solver``
    must not be served through this entry (its fingerprint points at the
    other backend's cache keys), so the engine checks it on probe.
    """
    paths: Set[str] = set(pass_dependency_paths(pass_class))
    paths.update(kwarg_data_paths(pass_kwargs))
    paths.update(class_data_paths(pass_class))
    return {
        "schema": DEPS_SCHEMA_VERSION,
        "fingerprint": fingerprint,
        "solver": solver,
        "module": pass_class.__module__,
        "qualname": pass_class.__qualname__,
        "paths": sorted(paths),
    }


def load_dep_index(directory) -> Dict[str, Dict]:
    """Read the persisted dependency index (the store's rows load on demand)."""
    from repro.engine.cache import ProofCache

    with ProofCache(directory) as store:
        return store.deps_snapshot()


def dep_index_paths(dep_index: Dict[str, Dict]) -> List[str]:
    """The union of every recorded entry's file set (the watchable surface)."""
    paths: Set[str] = set()
    for entry in dep_index.values():
        paths.update(entry.get("paths", ()))
    return sorted(paths)
