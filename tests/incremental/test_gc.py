"""Dependency-index garbage collection in the proof store."""

from repro.cli import main
from repro.engine.cache import ProofCache


def _seed(cache):
    cache.put_deps("live-1", {"schema": 1, "fingerprint": "f1", "paths": []})
    cache.put_deps("live-2", {"schema": 1, "fingerprint": "f2", "paths": []})
    cache.put_deps("gone-1", {"schema": 1, "fingerprint": "f3", "paths": []})
    cache.put_deps("gone-2", {"schema": 1, "fingerprint": "f4", "paths": []})


def test_gc_removes_only_dead_entries(tmp_path):
    with ProofCache(tmp_path) as cache:
        _seed(cache)
        removed = cache.gc_deps({"live-1", "live-2"})
        assert removed == 2
        assert set(cache.deps_snapshot()) == {"live-1", "live-2"}
        assert cache.stats.deps_reclaimed == 2
    # Durable: a reopened cache sees only the survivors.
    with ProofCache(tmp_path) as cache:
        assert set(cache.deps_snapshot()) == {"live-1", "live-2"}


def test_gc_with_everything_live_is_a_noop(tmp_path):
    with ProofCache(tmp_path) as cache:
        _seed(cache)
        assert cache.gc_deps({"live-1", "live-2", "gone-1", "gone-2"}) == 0
        assert len(cache.deps_snapshot()) == 4


def test_cli_cache_gc_keeps_suite_configurations(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    # Verify two real passes: their dep entries are in the suite and must
    # survive; a fabricated entry must be reclaimed.
    assert main(["verify", "CXCancellation", "Depth",
                 "--cache-dir", cache_dir, "--format", "json"]) == 0
    capsys.readouterr()
    with ProofCache(cache_dir) as cache:
        cache.put_deps("abandoned-config",
                       {"schema": 1, "fingerprint": "x", "paths": []})
        before = len(cache.deps_snapshot())
    assert main(["cache", "gc", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "1 reclaimed" in out
    with ProofCache(cache_dir) as cache:
        after = cache.deps_snapshot()
        assert len(after) == before - 1
        assert "abandoned-config" not in after


def test_sqlite_prune_reports_reclaimed_dep_rows(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    with ProofCache(cache_dir) as cache:
        # A row under a foreign index schema: invisible to readers,
        # reaped (and reported) by prune.
        with cache._lock:
            cache._conn.execute(
                "INSERT INTO deps (key, schema, value, updated_at) "
                "VALUES ('old', 9999, '{}', 0)")
        cache.put_pass("p", {"pass": "X"})
    assert main(["cache", "prune", "--max-entries", "10",
                 "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "1 dep rows reclaimed" in out
