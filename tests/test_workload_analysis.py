"""Tests for workload generators and analysis tooling."""

import random

import pytest

from repro.analysis import (
    LatencyStats,
    WARSModel,
    render_table,
    simulate_k_staleness,
    simulate_t_visibility,
)
from repro.workload import (
    BankWorkload,
    CartWorkload,
    DebitWorkload,
    LatestKeys,
    MixSpec,
    UniformKeys,
    YCSBWorkload,
    ZipfianKeys,
)


# ----------------------------------------------------------------------
# Key distributions
# ----------------------------------------------------------------------

def test_uniform_keys_in_range_and_roughly_flat():
    rng = random.Random(1)
    keys = UniformKeys(10)
    counts = [0] * 10
    for _ in range(5000):
        counts[keys.choose(rng)] += 1
    assert min(counts) > 300


def test_zipfian_skews_to_low_keys():
    rng = random.Random(2)
    keys = ZipfianKeys(1000)
    samples = [keys.choose(rng) for _ in range(8000)]
    assert all(0 <= s < 1000 for s in samples)
    head = sum(1 for s in samples if s < 100)
    assert head / len(samples) > 0.5  # top 10% of keys get most traffic


def test_zipfian_validation():
    with pytest.raises(ValueError):
        ZipfianKeys(0)


def test_latest_keys_follow_insert_point():
    rng = random.Random(3)
    keys = LatestKeys(100)
    early = [keys.choose(rng) for _ in range(2000)]
    assert max(early) == 99
    for _ in range(100):
        keys.advance()
    late = [keys.choose(rng) for _ in range(2000)]
    assert max(late) == 199
    assert sum(1 for s in late if s > 150) / len(late) > 0.5


# ----------------------------------------------------------------------
# YCSB
# ----------------------------------------------------------------------

def test_ycsb_preset_mixes():
    wl = YCSBWorkload("B", records=100, seed=7)
    ops = wl.take(2000)
    reads = sum(1 for op in ops if op.op == "read")
    assert 0.9 < reads / len(ops) < 0.99


def test_ycsb_c_is_read_only():
    ops = YCSBWorkload("C", records=50, seed=1).take(500)
    assert all(op.op == "read" for op in ops)


def test_ycsb_d_inserts_extend_keyspace():
    wl = YCSBWorkload("D", records=100, seed=2)
    ops = wl.take(3000)
    inserts = [op for op in ops if op.op == "insert"]
    assert inserts
    assert any(op.key == f"user{100 + len(inserts) - 1}" for op in inserts)


def test_ycsb_deterministic_by_seed():
    a = YCSBWorkload("A", records=100, seed=9).take(50)
    b = YCSBWorkload("A", records=100, seed=9).take(50)
    assert a == b
    c = YCSBWorkload("A", records=100, seed=10).take(50)
    assert a != c


def test_ycsb_custom_mix_and_validation():
    with pytest.raises(ValueError):
        MixSpec(read=0.5, update=0.2)
    with pytest.raises(ValueError):
        YCSBWorkload("Z")
    with pytest.raises(ValueError):
        YCSBWorkload(None)


def test_ycsb_values_unique():
    wl = YCSBWorkload("A", records=10, seed=3)
    values = [op.value for op in wl.take(200) if op.value]
    assert len(values) == len(set(values))


# ----------------------------------------------------------------------
# Cart + bank workloads
# ----------------------------------------------------------------------

def test_cart_removes_only_added_items():
    wl = CartWorkload(customers=3, catalog=10, seed=5)
    added = {}
    for op in wl.take(500):
        if op.action == "add":
            added.setdefault(op.cart, set()).add(op.item)
        elif op.action == "remove":
            assert op.item in added.get(op.cart, set())


def test_cart_validation():
    with pytest.raises(ValueError):
        CartWorkload(customers=0)


def test_bank_blue_fraction_respected():
    wl = BankWorkload(blue_fraction=0.8, seed=6)
    ops = wl.take(2000)
    deposits = sum(1 for op in ops if op.action == "deposit")
    assert 0.75 < deposits / len(ops) < 0.85
    assert all(op.amount >= 0 for op in ops)


def test_debit_workload_total_demand_tracks_fraction():
    wl = DebitWorkload(sites=3, total_headroom=1000.0, operations=200,
                       demand_fraction=0.8, seed=7)
    ops = wl.take()
    total = sum(op.amount for op in ops)
    assert 600 < total < 1000


def test_debit_workload_skew():
    wl = DebitWorkload(sites=4, total_headroom=100.0, operations=1000,
                       skew_site=2, skew_weight=0.9, seed=8)
    ops = wl.take()
    at_skewed = sum(1 for op in ops if op.site == 2)
    assert at_skewed / len(ops) > 0.85


# ----------------------------------------------------------------------
# LatencyStats
# ----------------------------------------------------------------------

def test_latency_stats_percentiles():
    stats = LatencyStats()
    stats.extend(float(i) for i in range(1, 101))
    assert stats.mean == pytest.approx(50.5)
    assert stats.p50 == pytest.approx(50.5)
    assert stats.p99 == pytest.approx(99.01)
    assert stats.summary()["max"] == 100.0
    assert stats.count == 100


def test_latency_stats_empty_and_validation():
    stats = LatencyStats()
    assert stats.mean == 0.0 and stats.p99 == 0.0
    with pytest.raises(ValueError):
        stats.record(-1.0)
    with pytest.raises(ValueError):
        stats.percentile(101)
    summary = stats.summary()
    assert summary["count"] == 0


@pytest.mark.parametrize("size", [0, 1, 2, 3, 100, 101, 997])
def test_latency_stats_summary_sorts_once_to_the_same_values(size, monkeypatch):
    """``summary()`` reads its order statistics off one sorted copy;
    each value is the one the (re-sorting) properties give, to the
    bit — every metrics digest hashes this dict."""
    rng = random.Random(size)
    stats = LatencyStats()
    stats.extend(rng.expovariate(0.1) for _ in range(size))
    expected = {
        "count": stats.count,
        "mean": round(stats.mean, 3),
        "p50": round(stats.p50, 3),
        "p95": round(stats.p95, 3),
        "p99": round(stats.p99, 3),
        "max": round(max(stats.samples, default=0.0), 3),
    }
    sorts = []
    monkeypatch.setitem(LatencyStats.summary.__globals__, "sorted",
                        lambda values: sorts.append(1) or sorted(values))
    assert stats.summary() == expected
    assert list(stats.summary()) == list(expected)  # same key order
    assert len(sorts) == 2  # one per summary() call
    stats.samples.clear()  # nothing cached
    assert stats.summary()["count"] == 0 and stats.summary()["max"] == 0.0


# ----------------------------------------------------------------------
# PBS
# ----------------------------------------------------------------------

def test_pbs_overlapping_quorums_always_consistent():
    result = simulate_t_visibility(n=3, r=2, w=2, t=0.0, trials=3000, seed=1)
    assert result.p_consistent == 1.0


def test_pbs_r1_w1_sometimes_stale_at_t0():
    result = simulate_t_visibility(n=3, r=1, w=1, t=0.0, trials=5000, seed=2)
    assert result.p_consistent < 1.0
    assert result.p_consistent > 0.3


def test_pbs_consistency_improves_with_t():
    p = [
        simulate_t_visibility(n=3, r=1, w=1, t=t, trials=5000, seed=3).p_consistent
        for t in (0.0, 2.0, 10.0)
    ]
    assert p[0] < p[1] < p[2]
    assert p[2] > 0.99


def test_pbs_consistency_improves_with_quorum_size():
    p_small = simulate_t_visibility(n=5, r=1, w=1, t=0.0, trials=5000,
                                    seed=4).p_consistent
    p_big = simulate_t_visibility(n=5, r=3, w=2, t=0.0, trials=5000,
                                  seed=4).p_consistent
    assert p_big > p_small


def test_pbs_latency_grows_with_quorum_size():
    fast = simulate_t_visibility(n=5, r=1, w=1, t=0.0, trials=4000, seed=5)
    slow = simulate_t_visibility(n=5, r=5, w=5, t=0.0, trials=4000, seed=5)
    assert slow.mean_read_latency > fast.mean_read_latency
    assert slow.mean_write_latency > fast.mean_write_latency


def test_pbs_k_staleness_monotone_in_k():
    p1 = simulate_k_staleness(3, 1, 1, k=1, trials=4000, seed=6)
    p3 = simulate_k_staleness(3, 1, 1, k=3, trials=4000, seed=6)
    assert p3 > p1


def test_pbs_validation():
    with pytest.raises(ValueError):
        simulate_t_visibility(3, 0, 1, 0.0)
    with pytest.raises(ValueError):
        simulate_t_visibility(3, 1, 4, 0.0)
    with pytest.raises(ValueError):
        simulate_t_visibility(3, 1, 1, -1.0)
    with pytest.raises(ValueError):
        simulate_k_staleness(3, 1, 1, k=0)


def test_wan_model_slower_than_lan():
    lan = simulate_t_visibility(3, 1, 1, 0.0, model=WARSModel.lan(),
                                trials=2000, seed=7)
    wan = simulate_t_visibility(3, 1, 1, 0.0, model=WARSModel.wan(),
                                trials=2000, seed=7)
    assert wan.mean_read_latency > lan.mean_read_latency


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------

def test_render_table_alignment_and_formatting():
    text = render_table(
        ["name", "value"],
        [["a", 1.2345], ["long-name", 12345.0]],
        title="T",
    )
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[1] and "value" in lines[1]
    assert "1.234" in text and "12,345" in text


def test_render_table_rejects_ragged_rows():
    with pytest.raises(ValueError):
        render_table(["a", "b"], [[1]])
