"""Unit tests for the multi-version store."""

import pytest

from repro.errors import StorageError
from repro.storage import MultiVersionStore, TimestampOracle


# ----------------------------------------------------------------------
# MultiVersionStore
# ----------------------------------------------------------------------

def test_mv_reads_see_snapshot():
    oracle, store = TimestampOracle(), MultiVersionStore()
    t1 = oracle.next(); store.install("x", "v1", t1)
    t2 = oracle.next(); store.install("x", "v2", t2)
    assert store.read("x", t1) == "v1"
    assert store.read("x", t2) == "v2"
    assert store.read("x", 0) is None


def test_mv_read_missing_key():
    store = MultiVersionStore()
    assert store.read("nope", 100) is None


def test_mv_delete_visible_after_ts():
    store = MultiVersionStore()
    store.install("x", "v", 1)
    store.install_delete("x", 5)
    assert store.read("x", 4) == "v"
    assert store.read("x", 5) is None


def test_mv_modified_since_first_committer_wins_check():
    store = MultiVersionStore()
    store.install("x", "v1", 3)
    assert store.modified_since("x", 2)
    assert not store.modified_since("x", 3)
    assert not store.modified_since("y", 0)


def test_mv_duplicate_commit_ts_rejected():
    store = MultiVersionStore()
    store.install("x", "a", 2)
    store.install("x", "b", 5)
    with pytest.raises(StorageError):
        store.install("x", "c", 5)


def test_mv_out_of_order_install_kept_sorted():
    store = MultiVersionStore()
    store.install("x", "late", 10)
    store.install("x", "early", 4)
    assert [v.commit_ts for v in store.chain("x")] == [4, 10]
    assert store.read("x", 7) == "early"


def test_mv_vacuum_preserves_visible_horizon():
    store = MultiVersionStore()
    for ts in (1, 3, 5, 9):
        store.install("x", f"v{ts}", ts)
    removed = store.vacuum(horizon_ts=5)
    assert removed == 2  # versions 1 and 3 dropped
    assert store.read("x", 5) == "v5"
    assert store.read("x", 9) == "v9"
    assert store.version_count() == 2


def test_mv_snapshot_view():
    store = MultiVersionStore()
    store.install("a", 1, 1)
    store.install("b", 2, 4)
    assert store.snapshot(2) == {"a": 1}
    assert store.snapshot(4) == {"a": 1, "b": 2}


def test_oracle_monotonic():
    oracle = TimestampOracle()
    values = [oracle.next() for _ in range(5)]
    assert values == sorted(values) and len(set(values)) == 5
    assert oracle.latest == 5
