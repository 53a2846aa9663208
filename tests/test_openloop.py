"""Tests for the open-loop traffic engine and server overload control."""

import pytest

from repro import Network, Simulator
from repro.api import registry
from repro.checkers import check_monotonic_reads
from repro.sim import FixedLatency
from repro.workload import (
    DiurnalArrivals,
    FlashCrowdArrivals,
    OpenLoopDriver,
    OpSpec,
    PoissonArrivals,
    YCSBWorkload,
    run_workload,
)


def build(seed=1, **kwargs):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=FixedLatency(2.0))
    return sim, registry.build("quorum", sim, net, nodes=3, **kwargs)


# ----------------------------------------------------------------------
# Arrival processes
# ----------------------------------------------------------------------

def take(arrivals, n):
    out = []
    for t in arrivals:
        out.append(t)
        if len(out) == n:
            break
    return out


def test_poisson_arrivals_seeded_and_replayable():
    a = PoissonArrivals(rate=100, seed=3)
    first, second = take(a, 50), take(a, 50)
    assert first == second                       # same object replays
    assert first == take(PoissonArrivals(rate=100, seed=3), 50)
    assert first != take(PoissonArrivals(rate=100, seed=4), 50)
    assert all(t2 > t1 for t1, t2 in zip(first, first[1:]))
    # ~100/sec -> the 50th arrival lands around 500ms.
    assert 200 < first[-1] < 1500


def test_diurnal_arrivals_follow_the_curve():
    arrivals = DiurnalArrivals(low=10, high=1000, period=2000.0, seed=5)
    times = [t for t in take(arrivals, 2000) if t < 2000.0]
    trough = sum(1 for t in times if t < 500.0)          # near the low
    peak = sum(1 for t in times if 750.0 <= t < 1250.0)  # around high
    assert peak > 3 * trough
    assert times == [t for t in take(arrivals, 2000) if t < 2000.0]


def test_flash_crowd_spikes_then_decays():
    arrivals = FlashCrowdArrivals(base=50, spike=2000, spike_at=1000.0,
                                  hold=500.0, decay=300.0, seed=5)
    times = take(arrivals, 3000)
    before = sum(1 for t in times if t < 1000.0)
    during = sum(1 for t in times if 1000.0 <= t < 1500.0)
    late = sum(1 for t in times if 3000.0 <= t < 4000.0)
    assert during > 5 * before
    assert late < during                # decayed back toward base
    assert arrivals.rate_at(500.0) == 50
    assert arrivals.rate_at(1200.0) == 2000
    assert 50 < arrivals.rate_at(2500.0) < 2000


def test_arrival_process_validation():
    with pytest.raises(ValueError):
        PoissonArrivals(rate=0)
    with pytest.raises(ValueError):
        DiurnalArrivals(low=10, high=5)
    with pytest.raises(ValueError):
        FlashCrowdArrivals(base=100, spike=50, spike_at=0)


# ----------------------------------------------------------------------
# Open-loop driver
# ----------------------------------------------------------------------

def test_open_loop_runs_ops_and_records_history():
    sim, store = build()
    ops = [OpSpec("insert", "a", 1), OpSpec("sleep", "", 99.0),
           OpSpec("read", "a"), OpSpec("update", "a", 2),
           OpSpec("read", "a")]
    driver = OpenLoopDriver(store, [0.0, 10.0, 20.0, 30.0],
                            ops, sessions=4, timeout=500.0, seed=2)
    result = driver.run()
    # 4 arrivals, sleeps skipped: insert, read, update, read all ran.
    assert result.offered == 4
    assert result.ok == 4 and result.failed == 0
    assert len(result.history) == 4
    assert result.read_latency.count == 2
    assert result.write_latency.count == 2
    assert 0 < result.sessions_used <= 4


def test_open_loop_rmw_composes_read_then_write():
    sim, store = build(seed=4)
    ops = [OpSpec("insert", "k", "1"), OpSpec("rmw", "k", "2")]
    driver = OpenLoopDriver(
        store, [0.0, 50.0], ops, sessions=1,
        timeout=500.0, rmw_fn=lambda old, fresh: f"{old}+{fresh}",
    )
    result = driver.run()
    assert result.ok == 2
    assert result.read_latency.count == 1
    assert result.write_latency.count == 2
    assert any(op.kind == "write" and op.value == "1+2"
               for op in result.history)


def test_open_loop_matches_closed_loop_at_low_load():
    """At low offered load the two drivers agree: every op completes,
    per-op latency matches, and the checkers give the same verdict."""
    ops = YCSBWorkload("A", records=50, seed=11).take(60)

    sim_c, store_c = build(seed=6)
    closed = run_workload(store_c, ops, clients=3, timeout=500.0)

    sim_o, store_o = build(seed=6)
    arrivals = PoissonArrivals(rate=50, seed=6)   # far below capacity
    open_ = run_workload(store_o, ops, arrivals=arrivals, clients=3,
                         timeout=500.0, until=5000.0, max_ops=60)

    assert closed.ops_ok == open_.ok == 60
    assert closed.ops_failed == open_.failed == 0
    # Uncongested per-op latency is the same store machinery either way.
    assert abs(closed.read_latency.mean - open_.read_latency.mean) < 2.0
    assert abs(closed.write_latency.mean - open_.write_latency.mean) < 2.0
    closed_verdict = check_monotonic_reads(closed.history)
    open_verdict = check_monotonic_reads(open_.history)
    assert closed_verdict.ok == open_verdict.ok


def test_open_loop_does_not_self_throttle():
    """The defining open-loop property: offered load is set by the
    arrival process, not by completions — a slow store still sees
    every arrival (closed-loop would have issued far fewer)."""
    sim, store = build(seed=3)
    for nid in store.server_ids():
        store.network.node(nid).service_time = 5.0
    driver = OpenLoopDriver(store, PoissonArrivals(rate=2000, seed=3),
                            YCSBWorkload("B", records=20, seed=3),
                            sessions=200, timeout=50.0, seed=3)
    result = driver.run(500.0)
    assert result.offered > 800           # ~2000/s for 0.5s, minus tail
    assert result.failed > 0              # saturated: timeouts happened


def test_queue_depth_metrics_under_saturating_burst():
    sim, store = build(seed=2, service_time=2.0)
    burst = [0.0] * 200  # all at once
    driver = OpenLoopDriver(store, burst, YCSBWorkload("B", records=10, seed=2),
                            sessions=100, timeout=5000.0, seed=2)
    result = driver.run()
    peak = sim.metrics.gauge("server.queue_depth_peak").value
    assert peak > 10                               # the burst queued up
    assert sim.metrics.gauge("server.queue_depth").value == 0  # drained
    assert result.ok == 200                        # unbounded queue: all served


def test_bounded_queue_sheds_and_counts():
    sim, store = build(seed=2, service_time=2.0, queue_limit=8)
    burst = [0.0] * 200
    driver = OpenLoopDriver(store, burst, YCSBWorkload("B", records=10, seed=2),
                            sessions=100, timeout=5000.0, seed=2)
    result = driver.run()
    assert result.shed > 0
    assert result.ok + result.failed == 200
    assert sim.metrics.counter("server.shed").value == result.shed
    assert sim.metrics.gauge("server.queue_depth_peak").value <= 8 * 3


def test_run_workload_arrivals_returns_open_loop_result():
    sim, store = build(seed=8)
    result = run_workload(store, YCSBWorkload("C", records=20, seed=8),
                          arrivals=PoissonArrivals(rate=200, seed=8),
                          clients=10, timeout=500.0, until=1000.0)
    assert hasattr(result, "goodput")
    assert result.offered > 0 and result.ok == result.offered


def test_open_loop_result_before_start_is_zero():
    sim, store = build()
    driver = OpenLoopDriver(store, PoissonArrivals(rate=10, seed=1),
                            YCSBWorkload("C", records=5, seed=1))
    result = driver.result()
    assert result.duration == 0.0
    assert result.goodput == 0.0 and result.offered == 0
