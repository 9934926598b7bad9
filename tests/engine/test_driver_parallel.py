"""The batch driver: cache behaviour, parallel parity, scheduler fallback."""

import pickle

import pytest

from repro.engine import ProofCache, WorkerPool, parallel_map, verify_passes
from repro.engine.driver import default_pass_kwargs, payload_to_result, result_to_payload
from repro.passes import (
    BuggyOptimize1qGates,
    CXCancellation,
    Depth,
    RemoveBarriers,
    SwapCancellation,
    Width,
)
from repro.passes.buggy import BUGGY_PASSES
from repro.verify.verifier import verify_pass

SMALL_SUITE = [CXCancellation, Width, RemoveBarriers, Depth, SwapCancellation]


def _summary(result):
    return (
        result.pass_name,
        result.verified,
        result.supported,
        result.num_subgoals,
        result.paths_explored,
        tuple(result.failure_reasons),
    )


def test_cold_run_is_all_misses_then_warm_run_all_hits(tmp_path):
    cold = verify_passes(SMALL_SUITE, jobs=1, cache_dir=tmp_path)
    assert cold.stats.cache_hits == 0
    assert cold.stats.cache_misses == len(SMALL_SUITE)
    warm = verify_passes(SMALL_SUITE, jobs=1, cache_dir=tmp_path)
    assert warm.stats.cache_hits == len(SMALL_SUITE)
    assert warm.stats.cache_misses == 0
    assert [_summary(r) for r in cold.results] == [_summary(r) for r in warm.results]
    assert all(result.from_cache for result in warm.results)
    assert not any(result.from_cache for result in cold.results)


def test_cached_results_match_direct_verification(tmp_path):
    verify_passes(SMALL_SUITE, jobs=1, cache_dir=tmp_path)
    warm = verify_passes(SMALL_SUITE, jobs=1, cache_dir=tmp_path)
    for pass_class, cached in zip(SMALL_SUITE, warm.results):
        direct = verify_pass(pass_class)
        assert _summary(cached) == _summary(direct)
        # Rule names embed per-run symbolic uids; the *shape* of the rule
        # usage (count and families) must survive the cache round trip.
        strip = lambda name: name.rstrip("0123456789_g")  # noqa: E731
        assert sorted(map(strip, cached.rules_used)) == sorted(map(strip, direct.rules_used))
        if direct.analysis is not None:
            assert cached.analysis.lines_of_code == direct.analysis.lines_of_code
            assert cached.analysis.templates_used == direct.analysis.templates_used


def test_jobs_parity_sequential_vs_parallel():
    sequential = verify_passes(SMALL_SUITE, jobs=1, use_cache=False)
    parallel = verify_passes(SMALL_SUITE, jobs=4, use_cache=False)
    assert [_summary(r) for r in sequential.results] == [
        _summary(r) for r in parallel.results
    ]
    assert sequential.stats.jobs == 1
    assert parallel.stats.jobs == 4


def test_failing_pass_round_trips_through_cache(tmp_path):
    cold = verify_passes([BuggyOptimize1qGates], jobs=1, cache_dir=tmp_path)
    warm = verify_passes([BuggyOptimize1qGates], jobs=1, cache_dir=tmp_path)
    assert warm.stats.cache_hits == 1
    for report in (cold, warm):
        (result,) = report.results
        assert result.supported and not result.verified
        assert result.failure_reasons
    cold_ce, warm_ce = cold.results[0].counterexample, warm.results[0].counterexample
    if cold_ce is not None:
        assert warm_ce is not None
        assert warm_ce.kind == cold_ce.kind
        assert warm_ce.confirmed == cold_ce.confirmed


@pytest.mark.parametrize("pass_class", BUGGY_PASSES, ids=lambda cls: cls.__name__)
def test_every_buggy_pass_is_rejected_through_the_engine(pass_class, tmp_path):
    """The default kwargs give each buggy pass what it needs to be built, so
    the engine returns a rejected verdict instead of crashing."""
    report = verify_passes([pass_class], cache_dir=tmp_path,
                           pass_kwargs_fn=default_pass_kwargs)
    (result,) = report.results
    assert result.pass_name == pass_class.__name__
    assert not result.verified
    assert result.counterexample is not None and result.counterexample.confirmed


def test_result_payload_round_trip():
    result = verify_pass(CXCancellation)
    rebuilt = payload_to_result(result_to_payload(result))
    assert _summary(rebuilt) == _summary(result)
    assert rebuilt.summary().split("(")[0] == result.summary().split("(")[0]


def test_subgoal_reuse_across_related_passes(tmp_path):
    # A cache primed by one pass lets a *different* (never-cached) pass
    # reuse the subgoals they share — here the analysis passes, whose
    # "circuit unchanged" obligation is canonically identical.
    cache = ProofCache(tmp_path)
    verify_passes([Width], jobs=1, cache=cache)
    report = verify_passes([Depth], jobs=1, cache=cache)
    assert report.stats.cache_hits == 0  # different pass: no whole-pass hit
    assert report.stats.subgoal_hits > 0
    cache.close()


def test_subgoal_memoisation_within_verify_one():
    from repro.engine.driver import _verify_one

    table = {}
    _, acct = _verify_one(CXCancellation, None, False, table)
    assert acct.misses == len(acct.new_subgoals) > 0
    assert acct.hit_keys == []
    # Every freshly proved subgoal carries a certificate payload.
    assert sorted(acct.new_certificates) == sorted(acct.new_subgoals)
    # Re-verifying the same pass against the warm table discharges every
    # subgoal from memory (this is what a changed-but-similar pass hits).
    _, second = _verify_one(CXCancellation, None, False, table)
    assert second.misses == 0
    assert second.new_subgoals == {}
    assert second.hits == acct.hits + acct.misses
    assert sorted(second.hit_keys) == sorted(acct.new_subgoals)


def test_stats_are_per_run_for_shared_cache(tmp_path):
    cache = ProofCache(tmp_path)
    first = verify_passes(SMALL_SUITE, jobs=1, cache=cache)
    second = verify_passes(SMALL_SUITE, jobs=1, cache=cache)
    assert first.stats.cache_misses == len(SMALL_SUITE)
    assert second.stats.cache_hits == len(SMALL_SUITE)
    assert second.stats.cache_misses == 0
    cache.close()


def test_engine_stats_dict_field_order():
    report = verify_passes([Width], jobs=1, use_cache=False)
    keys = list(report.stats.to_dict().keys())
    assert keys[:4] == ["cache_hits", "cache_misses", "jobs", "wall_seconds"]


# --------------------------------------------------------------------------- #
# Scheduler
# --------------------------------------------------------------------------- #
def _square(value):
    return value * value


def test_parallel_map_preserves_order():
    values = list(range(20))
    assert parallel_map(_square, values, jobs=4) == [v * v for v in values]


def test_worker_pool_falls_back_in_process_for_unpicklable_work():
    pool = WorkerPool(jobs=4)
    closure = lambda v: v + 1  # noqa: E731 - deliberately unpicklable
    with pytest.raises(Exception):
        pickle.dumps(closure)
    assert pool.map(closure, [1, 2, 3]) == [2, 3, 4]
    assert pool.used_processes is False


def test_jobs_one_never_spawns_processes():
    pool = WorkerPool(jobs=1)
    assert pool.map(_square, [3, 4]) == [9, 16]
    assert pool.used_processes is False
