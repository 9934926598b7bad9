"""The sqlite proof store: persistence, invalidation, eviction, migration."""

import json
import sqlite3

from repro.engine.cache import (
    SCHEMA_VERSION,
    ProofCache,
    migrate_jsonl,
    sqlite_cache_path,
)
from repro.engine.fingerprint import toolchain_fingerprint

FP = "a" * 64  # explicit fingerprint: store tests never need the real prover


def _subgoal(n=0):
    return {"proved": True, "method": "identical", "reason": "", "rules_used": [f"r{n}"]}


def test_in_memory_round_trip():
    cache = ProofCache(None, active_fingerprint=FP)
    assert cache.get_pass("k") is None
    cache.put_pass("k", {"verified": True})
    assert cache.get_pass("k") == {"verified": True}
    assert cache.stats.pass_hits == 1
    assert cache.stats.pass_misses == 1
    assert cache.path is None
    cache.close()


def test_persistence_across_instances(tmp_path):
    with ProofCache(tmp_path, active_fingerprint=FP) as cache:
        cache.put_pass("pk", {"verified": True})
        cache.put_subgoal("sk", _subgoal())
    reopened = ProofCache(tmp_path, active_fingerprint=FP)
    assert reopened.get_pass("pk") == {"verified": True}
    assert reopened.get_subgoal("sk")["proved"] is True
    assert reopened.has_subgoal("sk")
    assert len(reopened) == 2
    assert "pk" in reopened
    assert sorted(kind for kind, _, _ in reopened.entries()) == ["pass", "subgoal"]
    reopened.close()


def test_last_write_wins(tmp_path):
    with ProofCache(tmp_path, active_fingerprint=FP) as cache:
        for round_number in range(5):
            cache.put_pass("pk", {"round": round_number})
    with ProofCache(tmp_path, active_fingerprint=FP) as cache:
        assert cache.get_pass("pk") == {"round": 4}
        assert len(cache) == 1


def test_entries_from_other_toolchains_are_invisible(tmp_path):
    with ProofCache(tmp_path, active_fingerprint=FP) as cache:
        cache.put_pass("pk", {"verified": True})
    other = ProofCache(tmp_path, active_fingerprint="b" * 64)
    assert other.get_pass("pk") is None
    assert other.stats.invalidated == 1
    assert other.stats.pass_misses == 1
    assert len(other) == 0
    assert other.subgoal_snapshot() == {}
    other.close()


def test_default_fingerprint_is_the_toolchain(tmp_path):
    with ProofCache(tmp_path) as cache:
        assert cache.active_fingerprint == toolchain_fingerprint()


def test_subgoal_snapshot_only_live_entries(tmp_path):
    with ProofCache(tmp_path, active_fingerprint=FP) as cache:
        cache.put_subgoal("s1", _subgoal(1))
        cache.put_subgoal("s2", _subgoal(2))
    with ProofCache(tmp_path, active_fingerprint="b" * 64) as stale:
        stale.put_subgoal("s3", _subgoal(3))
    with ProofCache(tmp_path, active_fingerprint=FP) as cache:
        snapshot = cache.subgoal_snapshot()
    assert sorted(snapshot) == ["s1", "s2"]


def test_hit_counts_accumulate_in_the_database(tmp_path):
    with ProofCache(tmp_path, active_fingerprint=FP) as cache:
        cache.put_pass("pk", {"verified": True})
        cache.get_pass("pk")
        cache.get_pass("pk")
    # A second client's hits land on the same counter.
    with ProofCache(tmp_path, active_fingerprint=FP) as cache:
        cache.get_pass("pk")
        assert cache.hit_count("pass", "pk") == 3


def test_reproving_under_new_toolchain_resets_hits(tmp_path):
    with ProofCache(tmp_path, active_fingerprint=FP) as cache:
        cache.put_pass("pk", {"verified": True})
        cache.get_pass("pk")
        cache.get_pass("pk")
        assert cache.hit_count("pass", "pk") == 2
        cache.put_pass("pk", {"verified": True})      # same fp: tally survives
        assert cache.hit_count("pass", "pk") == 2
    with ProofCache(tmp_path, active_fingerprint="b" * 64) as newer:
        newer.put_pass("pk", {"verified": True})      # new fp: tally resets
        assert newer.hit_count("pass", "pk") == 0


def test_touch_subgoals_refreshes_recency_and_hits(tmp_path):
    with ProofCache(tmp_path, active_fingerprint=FP) as cache:
        cache.put_subgoal("hot", _subgoal())
        cache.put_pass("p1", {"verified": True})
        cache.put_pass("p2", {"verified": True})
        cache.touch_subgoals(["hot", "unknown-key"])
        assert cache.hit_count("subgoal", "hot") == 1
        assert cache.prune(1) == 2
        assert cache.has_subgoal("hot")


def test_prune_is_least_recently_used(tmp_path):
    with ProofCache(tmp_path, active_fingerprint=FP) as cache:
        for index in range(5):
            cache.put_pass(f"p{index}", {"index": index})
        # Refresh p0 so p1 becomes the eviction victim.
        cache.get_pass("p0")
        evicted = cache.prune(3)
        assert evicted == 2
        assert cache.stats.evicted == 2
        assert cache.get_pass("p0") is not None
        assert cache.get_pass("p4") is not None
        assert cache.get_pass("p1") is None
        assert cache.get_pass("p2") is None


def test_prune_reaps_stale_fingerprints_first(tmp_path):
    with ProofCache(tmp_path, active_fingerprint="b" * 64) as old:
        old.put_pass("old", {"verified": True})
    with ProofCache(tmp_path, active_fingerprint=FP) as cache:
        cache.put_pass("new", {"verified": True})
        assert cache.prune(10) == 1       # only the stale row goes
        assert cache.get_pass("new") is not None


def test_max_entries_prunes_on_close(tmp_path):
    with ProofCache(tmp_path, active_fingerprint=FP, max_entries=2) as cache:
        for index in range(6):
            cache.put_pass(f"p{index}", {"index": index})
    with ProofCache(tmp_path, active_fingerprint=FP) as cache:
        assert len(cache) == 2


def test_transient_errors_do_not_trigger_rebuild():
    from repro.engine.cache import _looks_corrupt

    assert _looks_corrupt(sqlite3.DatabaseError("file is not a database"))
    assert _looks_corrupt(sqlite3.OperationalError("file is not a database"))
    assert _looks_corrupt(sqlite3.DatabaseError("database disk image is malformed"))
    assert not _looks_corrupt(sqlite3.OperationalError("database is locked"))
    assert not _looks_corrupt(sqlite3.OperationalError("unable to open database file"))


def test_corrupt_database_file_is_rebuilt(tmp_path):
    sqlite_cache_path(tmp_path).parent.mkdir(parents=True, exist_ok=True)
    sqlite_cache_path(tmp_path).write_text("this is not a database")
    with ProofCache(tmp_path, active_fingerprint=FP) as cache:
        assert cache.stats.corrupt_lines == 1
        cache.put_pass("pk", {"verified": True})
        assert cache.get_pass("pk") == {"verified": True}


def test_incompatible_schema_is_rebuilt(tmp_path):
    with ProofCache(tmp_path, active_fingerprint=FP) as cache:
        cache.put_pass("pk", {"verified": True})
    connection = sqlite3.connect(sqlite_cache_path(tmp_path))
    connection.execute("UPDATE meta SET value = '999' WHERE key = 'schema_version'")
    connection.commit()
    connection.close()
    with ProofCache(tmp_path, active_fingerprint=FP) as cache:
        assert len(cache) == 0            # rebuilt, not misread
        assert cache.summary()["schema_version"] == SCHEMA_VERSION


def test_summary_counts(tmp_path):
    with ProofCache(tmp_path, active_fingerprint=FP) as cache:
        cache.put_pass("pk", {"verified": True})
        cache.put_subgoal("sk", _subgoal())
        cache.get_pass("pk")
        summary = cache.summary()
    assert summary["backend"] == "sqlite"
    assert summary["entries_live"] == 2
    assert summary["pass_entries"] == 1
    assert summary["subgoal_entries"] == 1
    assert summary["accumulated_hits"] == 1


# --------------------------------------------------------------------------- #
# JSONL migration (fixtures are hand-written in the retired store's layout)
# --------------------------------------------------------------------------- #
def _write_jsonl(path, records):
    with open(path, "a", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def _proof(key, value, kind="pass", fp=FP):
    return {"kind": kind, "key": key, "fp": fp, "value": value}


def _touch(key, hits, ref="pass"):
    return {"kind": "touch", "ref": ref, "key": key, "hits": hits}


def test_migrate_jsonl_one_shot(tmp_path):
    _write_jsonl(tmp_path / "proofs.jsonl", [
        _proof("pk", {"verified": True}),
        _proof("sk", _subgoal(), kind="subgoal"),
    ])
    assert migrate_jsonl(tmp_path) == 2
    with ProofCache(tmp_path, active_fingerprint=FP) as store:
        assert store.get_pass("pk") == {"verified": True}
        assert store.get_subgoal("sk")["proved"] is True
    # The JSONL file survives (migration does not destroy the old tier).
    assert (tmp_path / "proofs.jsonl").exists()
    # Re-running migrates nothing new.
    assert migrate_jsonl(tmp_path) == 0


def test_migrate_jsonl_last_write_wins(tmp_path):
    _write_jsonl(tmp_path / "proofs.jsonl", [
        _proof("pk", {"round": 1}),
        _proof("pk", {"round": 2}),
    ])
    assert migrate_jsonl(tmp_path) == 1
    with ProofCache(tmp_path, active_fingerprint=FP) as store:
        assert store.get_pass("pk") == {"round": 2}


def test_migrate_jsonl_preserves_recorded_fingerprints(tmp_path):
    stale = {"kind": "pass", "key": "old", "fp": "0" * 64, "value": {"verified": False}}
    (tmp_path / "proofs.jsonl").write_text(json.dumps(stale) + "\n")
    assert migrate_jsonl(tmp_path) == 1
    with ProofCache(tmp_path, active_fingerprint=FP) as store:
        assert store.get_pass("old") is None          # stale stays stale
        assert store.summary()["entries_stale"] == 1


def test_migrate_jsonl_replays_touch_records(tmp_path):
    """A warm session's touch records carry recency into the sqlite store —
    they are order metadata, not corruption."""
    _write_jsonl(tmp_path / "proofs.jsonl", [
        _proof("a", {"n": 0}),
        _proof("b", {"n": 1}),
        _touch("a", 1),                   # "a" was reused after "b" was stored
    ])
    with ProofCache(tmp_path, active_fingerprint=FP) as store:
        assert migrate_jsonl(tmp_path, store=store) == 2
        assert store.stats.corrupt_lines == 0     # touches are not corruption
        assert store.prune(1) == 1
        assert store.get_pass("a") is not None    # the hot entry survived
        assert store.get_pass("b") is None


def test_migrate_jsonl_skips_corrupt_lines(tmp_path):
    _write_jsonl(tmp_path / "proofs.jsonl", [_proof("good", {"verified": True})])
    with open(tmp_path / "proofs.jsonl", "a", encoding="utf-8") as handle:
        handle.write("not json\n")
    assert migrate_jsonl(tmp_path) == 1


def test_migrate_jsonl_without_file(tmp_path):
    assert migrate_jsonl(tmp_path) == 0
    assert not sqlite_cache_path(tmp_path).exists()


def test_existing_sqlite_rows_win_over_migrated(tmp_path):
    _write_jsonl(tmp_path / "proofs.jsonl", [_proof("pk", {"source": "jsonl"})])
    with ProofCache(tmp_path, active_fingerprint=FP) as store:
        store.put_pass("pk", {"source": "sqlite"})
        assert migrate_jsonl(tmp_path, store=store) == 0
        assert store.get_pass("pk") == {"source": "sqlite"}


def test_migrate_jsonl_carries_the_dependency_index_and_certificates(tmp_path):
    """A migrated directory keeps every tier: an incremental run sees the
    same stale set as the store the files were written from, and the
    certificates arrive under their recorded fingerprint."""
    import inspect

    from repro.engine import verify_passes
    from repro.incremental.deps import DEPS_SCHEMA_VERSION
    from repro.passes import CXCancellation, Depth, Width

    passes = [CXCancellation, Depth, Width]
    source, fixture = tmp_path / "source", tmp_path / "fixture"
    verify_passes(passes, cache_dir=str(source))
    fixture.mkdir()
    with ProofCache(source) as store:
        fp = store.active_fingerprint
        proofs = [_proof(key, value, kind=kind, fp=fp)
                  for kind, key, value in store.entries()]
        deps = store.deps_snapshot()
        certs = store.certificate_snapshot()
    assert certs and len(deps) == len(passes)
    foreign = dict(next(iter(deps.values())), schema=DEPS_SCHEMA_VERSION + 1)
    _write_jsonl(fixture / "proofs.jsonl", proofs)
    _write_jsonl(fixture / "deps.jsonl",
                 [{"key": key, "value": value} for key, value in deps.items()]
                 + [{"key": "foreign-schema", "value": foreign}])
    _write_jsonl(fixture / "certs.jsonl",
                 [{"key": key, "fp": fp, "value": value}
                  for key, value in certs.items()])

    assert migrate_jsonl(fixture) == len(proofs) + len(deps) + len(certs)
    with ProofCache(fixture) as store:
        assert store.certificate_snapshot() == certs
        assert store.deps_snapshot() == deps      # the foreign row was dropped

    changed = [inspect.getsourcefile(CXCancellation)]
    reference = verify_passes(passes, cache_dir=str(source), changed_paths=changed)
    migrated = verify_passes(passes, cache_dir=str(fixture), changed_paths=changed)
    assert migrated.stats.stale_passes == reference.stats.stale_passes < len(passes)
    assert migrated.stats.cache_hits == reference.stats.cache_hits == len(passes)


def test_prune_reports_reclaimed_bytes_per_tier(tmp_path):
    from repro.telemetry.stats import load_evictions

    with ProofCache(tmp_path, active_fingerprint=FP) as cache:
        for index in range(4):
            cache.put_pass(f"p{index}", {"payload": "x" * 50, "i": index})
        evicted = cache.prune(2)
        assert evicted == 2
        assert cache.stats.proof_bytes_reclaimed > 100
        journaled = load_evictions(tmp_path)
        assert {entry["key"] for entry in journaled} == {"p0", "p1"}


def test_summary_measures_payload_bytes(tmp_path):
    with ProofCache(tmp_path, active_fingerprint=FP) as cache:
        cache.put_pass("pk", {"payload": "x" * 100})
        cache.put_certificate("ck", {"cert": "y" * 50})
        summary = cache.summary()
        assert summary["payload_bytes"] > 100
        assert summary["cert_payload_bytes"] > 50


def test_migrate_carries_hit_counters_over(tmp_path):
    """The retired JSONL store's accumulated hit counts must survive the one-shot
    import — LRU decisions after a migration would otherwise treat every
    hot key as never used."""
    _write_jsonl(tmp_path / "proofs.jsonl", [
        _proof("hot", {"verified": True}),
        _proof("cold", {"verified": True}),
        _touch("hot", 1),
        _touch("hot", 2),                 # absolute totals: last write wins
    ])
    migrated = migrate_jsonl(tmp_path)
    assert migrated == 2
    with ProofCache(tmp_path, active_fingerprint=FP) as store:
        assert store.hit_count("pass", "hot") == 2
        assert store.hit_count("pass", "cold") == 0
