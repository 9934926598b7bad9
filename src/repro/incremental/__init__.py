"""Incremental re-verification: dependency tracking, change detection, watch.

The engine (PR 1) made re-verification cheap by caching proofs; the service
tier (PR 2) made many processes share that cache.  Both are still
*invocation-driven*: every ``repro verify`` re-fingerprints and re-schedules
the whole suite, even when nothing changed.  This package makes verification
*edit-driven*:

* :mod:`repro.incremental.deps` maps each verified configuration to the set
  of source files its cache key can possibly depend on (the pass's module,
  its transitive intra-package imports, the toolchain and rule modules),
  persisted in a schema-versioned table of the proof store;
* :mod:`repro.incremental.detect` turns a set of changed paths — found by
  stdlib mtime/size/sha polling, no third-party watcher — into the minimal
  set of stale configurations;
* :mod:`repro.incremental.watch` runs the loop: poll, reload edited modules,
  route exactly the stale passes back through
  :func:`repro.engine.verify_passes`, and print per-cycle engine statistics.

``repro watch`` is the CLI surface; ``repro serve --watch`` runs the same
loop inside the daemon so invalidated entries are re-proved (pre-warmed)
before the next client asks.
"""

__all__ = [
    "ChangeDetector",
    "DEPS_SCHEMA_VERSION",
    "WatchCycle",
    "Watcher",
    "build_dep_entry",
    "class_data_paths",
    "identity_key",
    "is_python_source",
    "kwarg_data_paths",
    "normalize_path",
    "partition_changes",
    "pass_dependency_paths",
    "refresh_classes",
    "refresh_source_state",
    "stale_identities",
    "toolchain_dependency_paths",
]


def __getattr__(name):
    # PEP 562: the re-exports load on first use, so that importing one
    # submodule does not execute the whole package.
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from repro.incremental.deps import (
        DEPS_SCHEMA_VERSION,
        build_dep_entry,
        class_data_paths,
        identity_key,
        kwarg_data_paths,
        pass_dependency_paths,
        toolchain_dependency_paths,
    )
    from repro.incremental.detect import (
        ChangeDetector,
        is_python_source,
        normalize_path,
        partition_changes,
        stale_identities,
    )
    from repro.incremental.watch import (
        WatchCycle,
        Watcher,
        refresh_classes,
        refresh_source_state,
    )

    exports = locals()
    globals().update((key, exports[key]) for key in __all__ if key in exports)
    return exports[name]
