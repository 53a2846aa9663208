"""E16: the throughput–latency knee under open-loop load.

Claim: a closed-loop driver cannot show it, but every real store has a
knee — as open-loop offered load approaches service capacity, goodput
plateaus while tail latency turns sharply upward, and past saturation
an unprotected store collapses (service time is wasted on requests
whose clients already timed out).  The open-loop engine
(:mod:`repro.workload.openloop`) sweeps offered rate against three
protocols and finds each one's knee; a second table shows the hot-key
storm — congestion collapse with admission control off, prevention
(goodput within 20% of the knee) with it on.
"""

import pytest

from common import emit
from repro import Network, Simulator
from repro.analysis import render_table
from repro.api import registry
from repro.scenarios import run_storm
from repro.sim import FixedLatency
from repro.workload import OpenLoopDriver, PoissonArrivals, YCSBWorkload

SERVICE_TIME = 1.0          # ms/request -> 1000 ops/s per node
NODES = 3
WINDOW = 3000.0             # offered-traffic window (ms)
TIMEOUT = 100.0             # client per-op timeout (ms)
RATES = (500, 1000, 2000, 3000, 4000)
PROTOCOLS = ("quorum", "primary_backup", "chain")


def run_open_loop(protocol, rate, seed=7, admission=True):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=FixedLatency(2.0))
    knobs = dict(queue_limit=32, admission_rate=900.0,
                 admission_burst=50.0) if admission else {}
    store = registry.build(protocol, sim, net, nodes=NODES,
                           service_time=SERVICE_TIME, **knobs)
    ops = YCSBWorkload("B", records=100, seed=seed)
    driver = OpenLoopDriver(
        store, PoissonArrivals(rate=rate, seed=seed), ops,
        sessions=500, timeout=TIMEOUT, seed=seed,
    )
    return driver.run(WINDOW)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_e16_knee_curve(protocol, benchmark, capsys):
    rows, curve = [], []
    for rate in RATES:
        result = run_open_loop(protocol, rate)
        curve.append(result)
        rows.append([
            rate,
            round(result.offered_rate),
            round(result.goodput),
            result.shed,
            round(result.read_latency.percentile(50), 1),
            round(result.read_latency.percentile(99), 1),
        ])
    emit(capsys, render_table(
        ["offered", "arrived/s", "goodput/s", "shed", "rd p50", "rd p99"],
        rows,
        title=f"E16: open-loop knee — {protocol}, {NODES} nodes, "
              f"{SERVICE_TIME:g}ms service time, admission on",
    ))

    # Below the knee the store keeps up: goodput tracks offered load.
    low = curve[0]
    assert low.goodput >= 0.9 * low.offered_rate, low.goodput
    # Above the knee goodput plateaus: the two highest offered rates
    # differ by 2x but goodput by far less — the defining knee shape.
    assert curve[-1].goodput < 1.3 * curve[-2].goodput
    # And the plateau is capacity-shaped, not collapse: the saturated
    # store still outperforms its unsaturated low-load run (the exact
    # ceiling is protocol topology — a single primary saturates near
    # one node's capacity, a quorum ring near the ring's).
    assert curve[-1].goodput > 1.2 * curve[0].goodput
    # Tail latency turns upward across the knee.
    assert (curve[-1].read_latency.percentile(99)
            > 1.5 * curve[0].read_latency.percentile(99))

    benchmark.pedantic(run_open_loop, args=(protocol, 2000),
                       rounds=2, iterations=1)


def test_e16_hot_key_storm(capsys):
    """Congestion collapse without admission control; prevention with."""
    report = run_storm(seed=42)
    rows = [
        [run.name, "on" if run.admission else "off", run.offered, run.ok,
         run.shed, round(run.goodput), round(run.p99_read, 1),
         round(run.queue_peak)]
        for run in (report.runs[n] for n in ("knee", "collapse", "protected"))
    ]
    emit(capsys, render_table(
        ["leg", "admission", "offered", "ok", "shed", "goodput/s",
         "rd p99", "queue peak"],
        rows,
        title="E16: hot-key storm — flash crowd vs quorum, "
              "with/without admission control",
    ))
    assert report.collapse_demonstrated, report.runs["collapse"].goodput
    assert report.collapse_prevented, report.runs["protected"].goodput
    assert report.converged
    # Deterministic per seed: a second identical storm fingerprints
    # byte-identically (the CI stories-smoke gate).
    assert run_storm(seed=42).fingerprint == report.fingerprint
