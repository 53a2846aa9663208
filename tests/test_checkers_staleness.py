"""Tests for staleness metrics and convergence checking."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkers import (
    check_bounded_staleness,
    check_convergence,
    measure_staleness,
    stale_read_fraction,
    staleness_by_tier,
)
from repro.histories import History, make_read, make_write

from .test_histories import op_st


# ----------------------------------------------------------------------
# Staleness
# ----------------------------------------------------------------------

def scan_staleness(history):
    """`measure_staleness` by definition: per read, filter the key's
    completed writes (the three comprehensions the bisect replaced)."""
    out = []
    for read in history:
        if not (read.is_read and read.completed):
            continue
        missed = [
            w for w in history
            if w.is_write and w.completed and w.key == read.key
            and w.end <= read.start and w.version > read.version
        ]
        superseded = min((w.end for w in missed), default=read.start)
        out.append((read.op_id, len(missed), max(0.0, read.start - superseded)))
    return out


@given(ops=st.lists(op_st, max_size=30))
@settings(max_examples=300, deadline=None)
def test_measure_staleness_equals_its_definition(ops):
    history = History(ops)
    measured = [(m.op.op_id, m.versions_behind, m.time_behind)
                for m in measure_staleness(history)]
    assert measured == scan_staleness(history)


def three_version_history(read_version):
    return History([
        make_write("k", 1, start=0, end=1),
        make_write("k", 2, start=2, end=3),
        make_write("k", 3, start=4, end=5),
        make_read("k", read_version, start=10, end=11),
    ])


def test_fresh_read_zero_staleness():
    measurements = measure_staleness(three_version_history(3))
    assert len(measurements) == 1
    m = measurements[0]
    assert m.fresh and m.versions_behind == 0 and m.time_behind == 0.0


def test_stale_read_counts_versions_behind():
    m = measure_staleness(three_version_history(1))[0]
    assert m.versions_behind == 2
    # v1 was first superseded when v2 committed at t=3; read began at 10.
    assert m.time_behind == pytest.approx(7.0)


def test_read_of_unborn_key_is_fresh_when_no_writes():
    h = History([make_read("k", 0, start=1, end=2)])
    assert measure_staleness(h)[0].fresh


def test_concurrent_write_does_not_count_as_missed():
    h = History([
        make_write("k", 1, start=0, end=5),
        make_read("k", 0, start=2, end=3),  # write still in flight
    ])
    assert measure_staleness(h)[0].fresh


def test_stale_read_fraction_and_distribution():
    h = History([
        make_write("k", 1, start=0, end=1),
        make_read("k", 1, start=2, end=3),
        make_read("k", 0, start=4, end=5),
        make_read("k", 1, start=6, end=7),
    ])
    assert stale_read_fraction(h) == pytest.approx(1 / 3)
    assert sorted(m.versions_behind for m in measure_staleness(h)) == [0, 0, 1]
    assert stale_read_fraction(History()) == 0.0


def test_bounded_staleness_k_bound():
    verdict = check_bounded_staleness(three_version_history(1), max_versions=1)
    assert verdict.violation_count == 1
    assert check_bounded_staleness(
        three_version_history(2), max_versions=1
    ).ok


def test_bounded_staleness_t_bound():
    verdict = check_bounded_staleness(three_version_history(1), max_time=5.0)
    assert not verdict.ok
    assert check_bounded_staleness(
        three_version_history(1), max_time=10.0
    ).ok


def test_bounded_staleness_requires_a_bound():
    with pytest.raises(ValueError):
        check_bounded_staleness(History())


# ----------------------------------------------------------------------
# Per-tier attribution (cache-boundary histories)
# ----------------------------------------------------------------------

def tiered_history():
    """Writes are authoritative; reads split across cache/store tiers.
    The cache hit at t=10 is 1 version behind; the store reads are
    fresh."""
    return History([
        make_write("k", 1, start=0, end=1, tier="store"),
        make_write("k", 2, start=4, end=5, tier="store"),
        make_read("k", 1, start=10, end=10.5, tier="cache"),
        make_read("k", 2, start=12, end=13, tier="store"),
        make_read("k", 2, start=14, end=14.5, tier="cache"),
    ])


def test_tier_filter_restricts_measured_reads():
    h = tiered_history()
    assert len(measure_staleness(h)) == 3
    cache = measure_staleness(h, tier="cache")
    assert len(cache) == 2
    assert [m.fresh for m in cache] == [False, True]
    store = measure_staleness(h, tier="store")
    assert len(store) == 1 and store[0].fresh


def test_tier_filter_keeps_writes_authoritative():
    """A hit-only view still measures against *all* writes: filtering
    reads to the cache tier must not hide the store-tier writes they
    missed."""
    h = tiered_history()
    stale = measure_staleness(h, tier="cache")[0]
    assert stale.versions_behind == 1
    assert stale.time_behind == pytest.approx(5.0)
    assert stale_read_fraction(h, tier="cache") == pytest.approx(0.5)
    assert sorted(m.versions_behind for m in measure_staleness(h, tier="cache")) \
        == [0, 1]


def test_bounded_staleness_per_tier():
    h = tiered_history()
    assert not check_bounded_staleness(h, max_versions=0).ok
    assert check_bounded_staleness(h, max_versions=0, tier="store").ok
    cache_only = check_bounded_staleness(h, max_versions=0, tier="cache")
    assert cache_only.violation_count == 1
    assert cache_only.checked_ops == 2


def test_hit_only_history():
    """Every read served by the cache: the store tier has no reads to
    measure and the empty filter result stays well-behaved."""
    h = History([
        make_write("k", 1, start=0, end=1, tier="store"),
        make_read("k", 1, start=2, end=3, tier="cache"),
        make_read("k", 1, start=4, end=5, tier="cache"),
    ])
    assert measure_staleness(h, tier="store") == []
    assert stale_read_fraction(h, tier="store") == 0.0
    verdict = check_bounded_staleness(h, max_time=1.0, tier="store")
    assert verdict.ok and verdict.checked_ops == 0
    by_tier = staleness_by_tier(h)
    assert set(by_tier) == {"cache"}
    assert by_tier["cache"].reads == 2
    assert by_tier["cache"].stale_fraction == 0.0


def test_miss_only_history():
    """Every read fell through to the backing store: the cache tier
    contributes nothing and attribution lands on 'store' alone."""
    h = History([
        make_write("k", 1, start=0, end=1, tier="store"),
        make_write("k", 2, start=2, end=3, tier="store"),
        make_read("k", 1, start=6, end=7, tier="store"),
    ])
    assert measure_staleness(h, tier="cache") == []
    by_tier = staleness_by_tier(h)
    assert set(by_tier) == {"store"}
    assert by_tier["store"].stale == 1
    assert by_tier["store"].max_versions_behind == 1
    assert by_tier["store"].max_time_behind == pytest.approx(3.0)


def test_untier_ops_land_under_none():
    """Histories recorded below any cache (tier=None throughout) group
    under the single None tier — the pre-cache behavior unchanged."""
    h = History([
        make_write("k", 1, start=0, end=1),
        make_read("k", 1, start=2, end=3),
    ])
    by_tier = staleness_by_tier(h)
    assert set(by_tier) == {None}
    assert by_tier[None].reads == 1
    # None is a real tier value, distinct from "no filter".
    assert len(measure_staleness(h, tier=None)) == 1
    assert measure_staleness(h, tier="cache") == []
    assert len(measure_staleness(h)) == 1


def test_staleness_by_tier_empty_history():
    assert staleness_by_tier(History()) == {}


# ----------------------------------------------------------------------
# Convergence
# ----------------------------------------------------------------------

class make_store:
    """The least a replica is to the convergence helpers: an object
    whose ``snapshot()`` is its key → value mapping."""

    def __init__(self, items):
        self.items = dict(items)

    def snapshot(self):
        return self.items


def test_convergence_identical_stores():
    a = make_store({"x": 1, "y": 2})
    b = make_store({"x": 1, "y": 2})
    assert check_convergence([a, b]).ok


def test_convergence_detects_value_mismatch():
    a = make_store({"x": 1})
    b = make_store({"x": 2})
    verdict = check_convergence([a, b])
    assert not verdict.ok
    assert "disagree" in str(verdict.violations[0])


def test_convergence_detects_missing_key():
    a = make_store({"x": 1, "y": 2})
    b = make_store({"x": 1})
    verdict = check_convergence([a, b])
    assert verdict.violation_count == 1
    assert "'y'" in str(verdict.violations[0])


def test_convergence_accepts_plain_dicts():
    assert check_convergence([{"x": 1}, {"x": 1}]).ok
    assert not check_convergence([{"x": 1}, {}]).ok


def test_convergence_empty_and_single_replica():
    assert check_convergence([]).ok
    assert check_convergence([make_store({"x": 1})]).ok


def test_convergence_rejects_unsupported_type():
    with pytest.raises(TypeError):
        check_convergence([42, 43])
