"""E12 ("Figure 8"): timeline consistency — stale but never forked.

Claims (PNUTS): (a) the stale-read fraction of ``read_any`` grows with
asynchronous propagation lag; (b) reads never observe versions out of
per-record order (monotonic at a fixed replica, single master ⇒ no
forks); (c) ``read_critical`` converts staleness into bounded waiting;
(d) moving a record's master to its writer's site trades write latency
against remote-read freshness.
"""

import itertools

import pytest

from common import emit
from repro import Network, Simulator
from repro.analysis import render_table
from repro.api import FnSession, mapped_future, registry
from repro.checkers import (
    check_convergence,
    check_monotonic_reads,
    stale_read_fraction,
)
from repro.sim import FixedLatency
from repro.workload import OpSpec, WorkloadDriver

ROUNDS = 20


def run_lag(propagation_delay, critical=False, seed=3):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=FixedLatency(3.0))
    store = registry.build("timeline", sim, net, nodes=3,
                           propagation_delay=propagation_delay)
    master = store.master_of("rec")
    replica = next(n for n in store.node_ids if n != master)
    writer = store.session("writer")
    reader = store.session("reader", home=replica)
    mode = "any"
    if critical:
        # The reader demands a version it knows exists (round i ⇒ the
        # writer has committed at least version i) — how PNUTS apps use
        # read_critical after out-of-band notification.  The replica
        # blocks until propagation delivers it.  The store API has no
        # min_version, so the read is a session mode over the client.
        client, rounds = reader.client, itertools.count()

        def read_critical(key, timeout):
            read = client.read_critical(
                key, min_version=max(1, next(rounds)), timeout=timeout)
            return mapped_future(sim, read, lambda r: (r[0], r[1] or None))

        reader = FnSession(client, put_fn=reader.put,
                           read_fns={"critical": read_critical},
                           default_mode="critical")
        mode = "critical"
    driver = WorkloadDriver(sim)
    writes = [OpSpec("update", "rec", f"v{i}") for i in range(ROUNDS)]
    driver.add_session(writer, writes, think_time=12.0)
    driver.add_session(reader,
                       [OpSpec("sleep", "", 6.0)]
                       + [OpSpec("read", "rec")] * ROUNDS,
                       think_time=12.0, read_mode=mode)
    result = driver.run()
    sim.run(until=sim.now + 5 * propagation_delay + 100.0)
    history = result.history
    return {
        "stale": stale_read_fraction(history),
        "monotonic": check_monotonic_reads(history).ok,
        "read_ms": result.read_latency.mean,
        "converged": check_convergence(store.snapshots()).ok,
    }


def run_mastership(master_site_is_writer, seed=4):
    """Writer colocated with tl1; does moving the record master to tl1
    make its writes local (PNUTS's mastership-migration motivation)?"""
    from repro.sim import MatrixLatency

    sim = Simulator(seed=seed)
    site_of = {"tl0": "east", "tl1": "west", "tl2": "asia",
               "tlclient-1": "west", "tl0-fwd": "east"}
    latency = MatrixLatency(
        {("east", "west"): 25.0, ("east", "asia"): 50.0,
         ("west", "asia"): 60.0, ("east", "east"): 0.5,
         ("west", "west"): 0.5, ("asia", "asia"): 0.5},
        site_of=lambda node: site_of[node],
        jitter=0.0,
    )
    net = Network(sim, latency=latency)
    store = registry.build("timeline", sim, net, nodes=3,
                           propagation_delay=10.0)
    store.set_master("rec", "tl1" if master_site_is_writer else "tl0")
    driver = WorkloadDriver(sim)
    driver.add_session(store.session("w", home="tl1"),
                       [OpSpec("update", "rec", i) for i in range(10)],
                       think_time=5.0)
    return driver.run().write_latency.mean


def test_e12_timeline(benchmark, capsys):
    lags = (0.0, 4.0, 8.0, 15.0, 60.0)
    results = {lag: run_lag(lag) for lag in lags}
    emit(capsys, render_table(
        ["propagation lag (ms)", "stale read frac", "monotonic reads",
         "replicas converged"],
        [
            [lag, round(results[lag]["stale"], 3),
             results[lag]["monotonic"], results[lag]["converged"]]
            for lag in lags
        ],
        title="E12a: read_any staleness vs. asynchronous lag "
              "(remote replica reader)",
    ))

    critical = run_lag(60.0, critical=True)
    emit(capsys, render_table(
        ["mode", "stale frac", "mean read ms"],
        [["read_any", round(results[60.0]["stale"], 3),
          round(results[60.0]["read_ms"], 1)],
         ["read_critical", round(critical["stale"], 3),
          round(critical["read_ms"], 1)]],
        title="E12b: staleness traded for waiting at 60ms lag",
    ))

    near = run_mastership(True)
    far = run_mastership(False)
    emit(capsys, render_table(
        ["record master", "writer's mean write ms"],
        [["writer's node", round(near, 1)], ["remote node", round(far, 1)]],
        title="E12c: mastership migration (PNUTS write locality)",
    ))

    # (a) staleness grows with lag.
    staleness = [results[lag]["stale"] for lag in lags]
    assert staleness[0] <= staleness[1] <= staleness[3]
    assert staleness[3] > 0.5
    # (b) never off-timeline: monotonic reads hold at every lag, and
    #     replicas converge once propagation drains.
    assert all(results[lag]["monotonic"] for lag in lags)
    assert all(results[lag]["converged"] for lag in lags)
    # (c) critical reads remove the reader's own staleness... at the
    #     price of waiting for propagation.
    assert critical["read_ms"] > results[60.0]["read_ms"]
    # (d) local mastership makes writes local.
    assert near < far / 3

    benchmark.pedantic(run_lag, args=(20.0,), rounds=2, iterations=1)
