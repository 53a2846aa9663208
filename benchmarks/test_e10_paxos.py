"""E10 ("Figure 7"): the price of strong — Paxos commit scaling.

Claims: (a) a Multi-Paxos commit costs the leader one round trip to
the *median* replica, so geo commit latency is set by the majority-
forming sites, not the farthest one; (b) commit latency grows slowly
with replica count (more sites to reach majority across continents);
(c) linearizable reads pay the same log round trip while local reads
are ~free but stale.
"""

import pytest

from common import emit
from repro import Network, Simulator, spawn
from repro.analysis import LatencyStats, render_table
from repro.placement import Placement
from repro.replication import MultiPaxosCluster
from repro.sim import THREE_CONTINENTS

SITES = ("us-east", "eu", "asia")


def run_group(replicas, seed=2, rounds=10):
    sim = Simulator(seed=seed)
    ids = [f"px{i}" for i in range(replicas)]
    placement = Placement(THREE_CONTINENTS)
    for i, node in enumerate(ids):
        placement.place(node, SITES[i % 3])
    placement.place("pxclient-1", "us-east")   # client beside the leader
    net = Network(sim, latency=placement.latency_model(jitter=0.05))
    cluster = MultiPaxosCluster(sim, net, nodes=replicas, node_ids=ids)
    client = cluster.connect()
    commit = LatencyStats()
    log_read = LatencyStats()
    local_read = LatencyStats()

    def script():
        for i in range(rounds):
            start = sim.now
            yield client.put("k", i)
            commit.record(sim.now - start)
            start = sim.now
            yield client.get("k")
            log_read.record(sim.now - start)
            start = sim.now
            yield client.local_get("k", cluster.replicas[0])
            local_read.record(sim.now - start)
            yield 5.0

    spawn(sim, script())
    sim.run()
    return {
        "commit": commit.mean,
        "log_read": log_read.mean,
        "local_read": local_read.mean,
    }


def test_e10_paxos_scaling(benchmark, capsys):
    sizes = (3, 5, 7, 9)
    results = {n: run_group(n) for n in sizes}
    emit(capsys, render_table(
        ["replicas", "commit ms", "linearizable read ms", "local read ms"],
        [
            [n, round(results[n]["commit"], 1),
             round(results[n]["log_read"], 1),
             round(results[n]["local_read"], 1)]
            for n in sizes
        ],
        title="E10: Multi-Paxos across us-east/eu/asia, client+leader in "
              "us-east",
    ))

    # (a) commit ≈ RTT to the majority-forming site (eu: 2×40=80ms),
    #     NOT the farthest (asia: 220ms) — majority masks stragglers.
    assert 70.0 < results[3]["commit"] < 120.0
    # (b) growth with group size is mild (majority still nearby).
    assert results[9]["commit"] < 2.5 * results[3]["commit"]
    for small, big in zip(sizes, sizes[1:]):
        assert results[big]["commit"] >= results[small]["commit"] - 5.0
    # (c) linearizable reads cost like commits; local reads are ~free.
    assert results[3]["log_read"] > 50.0
    assert results[3]["local_read"] < 5.0

    benchmark.pedantic(run_group, args=(3,), rounds=2, iterations=1)
