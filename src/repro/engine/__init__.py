"""The parallel, cache-aware verification engine.

Turns one-shot pass verification into a scalable service: content-addressed
proof fingerprints (:mod:`repro.engine.fingerprint`), a persistent on-disk
proof cache (:mod:`repro.engine.cache`), a multiprocessing scheduler
(:mod:`repro.engine.scheduler`), and the batch driver API
(:mod:`repro.engine.driver`) that the CLI, the pass manager, and the
benchmarks route through.
"""

__all__ = [
    "CacheStats",
    "DEFAULT_SOLVER",
    "ENGINE_VERSION",
    "EngineReport",
    "EngineStats",
    "ProofCache",
    "SubgoalAccounting",
    "WorkerPool",
    "batch_distinct_configs",
    "data_dependency_digest",
    "default_cache_dir",
    "default_jobs",
    "default_pass_kwargs",
    "finalize_stats",
    "merge_shard_payloads",
    "open_proof_cache",
    "parallel_map",
    "pass_fingerprint",
    "payload_to_result",
    "resolve_pending",
    "result_to_payload",
    "rule_set_fingerprint",
    "store_results",
    "subgoal_fingerprint",
    "toolchain_fingerprint",
    "unit_fingerprint",
    "verify_pass_shard",
    "verify_passes",
]


def __getattr__(name):
    # PEP 562: the re-exports load on first use, so that importing one
    # submodule does not execute the whole package.
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from repro.engine.cache import (
        CacheStats,
        ProofCache,
        default_cache_dir,
        open_proof_cache,
    )
    from repro.engine.driver import (
        EngineReport,
        EngineStats,
        SubgoalAccounting,
        batch_distinct_configs,
        default_pass_kwargs,
        finalize_stats,
        merge_shard_payloads,
        payload_to_result,
        resolve_pending,
        result_to_payload,
        store_results,
        verify_pass_shard,
        verify_passes,
    )
    from repro.engine.fingerprint import (
        DEFAULT_SOLVER,
        ENGINE_VERSION,
        data_dependency_digest,
        pass_fingerprint,
        rule_set_fingerprint,
        subgoal_fingerprint,
        toolchain_fingerprint,
        unit_fingerprint,
    )
    from repro.engine.scheduler import WorkerPool, default_jobs, parallel_map

    exports = locals()
    globals().update((key, exports[key]) for key in __all__ if key in exports)
    return exports[name]
