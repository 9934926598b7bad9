"""Proof-cache persistence, hit/miss accounting, invalidation, and eviction."""

import pytest

from repro.engine.cache import ProofCache, default_cache_dir, open_proof_cache
from repro.engine.fingerprint import toolchain_fingerprint


def test_in_memory_cache_round_trip():
    cache = ProofCache(None)
    assert cache.get_pass("k") is None
    cache.put_pass("k", {"verified": True})
    assert cache.get_pass("k") == {"verified": True}
    assert cache.stats.pass_hits == 1
    assert cache.stats.pass_misses == 1
    assert cache.path is None


def test_persistence_across_instances(tmp_path):
    with ProofCache(tmp_path) as cache:
        cache.put_pass("pk", {"verified": True})
        cache.put_subgoal("sk", {"proved": True, "method": "identical",
                                 "reason": "", "rules_used": []})
    reopened = ProofCache(tmp_path)
    assert reopened.get_pass("pk") == {"verified": True}
    assert reopened.get_subgoal("sk")["proved"] is True
    assert len(reopened) == 2
    reopened.close()


def test_entries_from_other_toolchains_are_invalidated(tmp_path):
    with ProofCache(tmp_path) as cache:
        cache.put_pass("current", {"verified": True})
    # An entry stamped with a different rule-set fingerprint, simulating a
    # cache produced by an older prover.
    with ProofCache(tmp_path, active_fingerprint="0" * 64) as older:
        older.put_pass("stale", {"verified": False})
    reopened = ProofCache(tmp_path)
    assert reopened.get_pass("stale") is None
    assert reopened.get_pass("current") is not None
    assert reopened.stats.invalidated == 1
    assert reopened.active_fingerprint == toolchain_fingerprint()
    reopened.close()


def test_prune_is_least_recently_used(tmp_path):
    with ProofCache(tmp_path) as cache:
        for index in range(5):
            cache.put_pass(f"p{index}", {"index": index})
        cache.get_pass("p0")              # refresh: p1 becomes the victim
        assert cache.prune(3) == 2
        assert cache.stats.evicted == 2
        assert cache.get_pass("p0") is not None
        assert cache.get_pass("p4") is not None
        assert cache.get_pass("p1") is None
    # Eviction is durable: the compacted file carries only the survivors.
    reopened = ProofCache(tmp_path)
    assert len(reopened) == 3
    reopened.close()


def test_prune_recency_survives_reopen(tmp_path):
    """Reads reorder recency in memory; close() must persist that order —
    otherwise a later prune would evict by creation order, not by use."""
    with ProofCache(tmp_path) as cache:
        cache.put_pass("old", {"n": 0})
        cache.put_pass("new", {"n": 1})
    with ProofCache(tmp_path) as cache:
        cache.get_pass("old")             # most recently used, despite age
    with ProofCache(tmp_path) as cache:
        assert cache.prune(1) == 1
        assert cache.get_pass("old") is not None
        assert cache.get_pass("new") is None


def test_touch_subgoals_refreshes_snapshot_served_entries(tmp_path):
    """The engine reads subgoals via subgoal_snapshot(); the driver reports
    reused keys back so the hot subgoal tier never looks idle to LRU."""
    subgoal = {"proved": True, "method": "m", "reason": "", "rules_used": []}
    with ProofCache(tmp_path) as cache:
        cache.put_subgoal("hot", subgoal)
        cache.put_pass("p1", {"verified": True})
        cache.put_pass("p2", {"verified": True})
        cache.touch_subgoals(["hot", "unknown-key"])    # unknown keys ignored
        assert cache.prune(1) == 2
        assert cache.has_subgoal("hot")


def test_prune_counts_both_tables(tmp_path):
    with ProofCache(tmp_path) as cache:
        cache.put_pass("p", {"verified": True})
        cache.put_subgoal("s1", {"proved": True, "method": "m",
                                 "reason": "", "rules_used": []})
        cache.put_subgoal("s2", {"proved": True, "method": "m",
                                 "reason": "", "rules_used": []})
        assert cache.prune(2) == 1
        assert cache.get_pass("p") is None    # oldest entry went first
        assert cache.has_subgoal("s1") and cache.has_subgoal("s2")


def test_prune_in_memory_cache(tmp_path):
    cache = ProofCache(None)
    cache.put_pass("a", {})
    cache.put_pass("b", {})
    assert cache.prune(1) == 1
    assert cache.get_pass("b") is not None


def test_open_proof_cache_backends(tmp_path):
    """There is one store: no backend to choose."""
    with open_proof_cache(tmp_path) as cache:
        assert isinstance(cache, ProofCache)
        assert cache.backend == "sqlite"
        assert cache.path == tmp_path / "proofs.sqlite"
    with pytest.raises(TypeError):
        open_proof_cache(tmp_path, backend="jsonl")


def test_invalidated_is_per_run_not_cumulative(tmp_path):
    """A long-lived caller-provided cache (the daemon's) must not re-report
    old invalidations on every run's stats."""
    from repro.engine import verify_passes
    from repro.passes import Width

    with ProofCache(tmp_path, active_fingerprint="0" * 64) as older:
        older.put_pass("stale", {})
    with ProofCache(tmp_path) as cache:
        assert cache.get_pass("stale") is None
        assert cache.stats.invalidated == 1
        # The invalidation was counted before this run; the run itself
        # invalidated nothing.
        report = verify_passes([Width], cache=cache)
        assert report.stats.invalidated == 0


def test_batch_distinct_configs_defers_repeats():
    from repro.engine import batch_distinct_configs

    class A:
        pass

    class B:
        pass

    pairs = [(A, {"n": 1}), (B, None), (A, {"n": 2})]
    batches = list(batch_distinct_configs(pairs))
    assert [[index for index, _, _ in batch] for batch in batches] == [[0, 1], [2]]
    assert batches[0][0][2] == {"n": 1}
    assert batches[1][0][2] == {"n": 2}


def test_default_cache_dir_honours_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "override"))
    assert default_cache_dir() == tmp_path / "override"
    monkeypatch.delenv("REPRO_CACHE_DIR")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert default_cache_dir() == tmp_path / "xdg" / "repro"


def test_prune_reports_reclaimed_bytes_and_journals_evictions(tmp_path):
    from repro.telemetry.stats import load_evictions

    with ProofCache(tmp_path) as cache:
        for index in range(4):
            cache.put_pass(f"p{index}", {"payload": "x" * 50, "i": index})
        evicted = cache.prune(2)
        assert evicted == 2
        assert cache.stats.proof_bytes_reclaimed > 100   # two fat entries
        journaled = load_evictions(tmp_path)
        assert {entry["key"] for entry in journaled} == {"p0", "p1"}
        assert all(entry["tier"] == "pass" for entry in journaled)


def test_gc_deps_reports_reclaimed_bytes(tmp_path):
    with ProofCache(tmp_path) as cache:
        cache.put_deps("cfg-old", {"files": {"src/a.py": "h1"}})
        cache.put_deps("cfg-live", {"files": {"src/b.py": "h2"}})
        removed = cache.gc_deps({"cfg-live"})
        assert removed == 1
        assert cache.stats.dep_bytes_reclaimed > 0
