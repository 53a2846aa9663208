"""E4 ("Figure 3"): anti-entropy convergence and Merkle bandwidth.

Claims: (a) convergence time falls as gossip fan-out rises and grows
mildly (~log n) with replica count; (b) Merkle-tree reconciliation
moves orders of magnitude fewer bytes than full-state exchange when
replicas are nearly converged.
"""

import pytest

from common import emit
from repro import Network, Simulator
from repro.analysis import render_table
from repro.replication import GossipCluster
from repro.sim import FixedLatency


def convergence_time(nodes, fanout, seed=3, interval=20.0):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=FixedLatency(2.0))
    cluster = GossipCluster(sim, net, nodes=nodes, interval=interval,
                            fanout=fanout)
    for index, replica in enumerate(cluster.replicas):
        replica.write(f"key-{index}", f"value-{index}")
    return cluster.run_until_converged(poll=2.0)


def merkle_vs_full_bytes(strategy, seed=4, common_keys=300):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=FixedLatency(2.0), track_bytes=True)
    cluster = GossipCluster(sim, net, nodes=4, interval=10.0,
                            strategy=strategy)
    for i in range(common_keys):
        cluster.replicas[0].write(f"common-{i}", i)
    cluster.run_until_converged()
    baseline = sim.metrics.counter("net.bytes_sent").value
    cluster.replicas[1].write("fresh-key", "x")
    cluster.run_until_converged()
    return sim.metrics.counter("net.bytes_sent").value - baseline


def test_e4_convergence(benchmark, capsys):
    sweep = {}
    for nodes in (4, 8, 16, 32):
        for fanout in (1, 2, 4):
            times = [
                convergence_time(nodes, fanout, seed=s) for s in (3, 4, 5)
            ]
            sweep[(nodes, fanout)] = sum(times) / len(times)
    emit(capsys, render_table(
        ["replicas", "fanout=1", "fanout=2", "fanout=4"],
        [
            [nodes] + [round(sweep[(nodes, f)], 1) for f in (1, 2, 4)]
            for nodes in (4, 8, 16, 32)
        ],
        title="E4a: convergence time (ms, mean of 3 seeds; 20ms gossip "
              "interval)",
    ))

    # (a) higher fanout converges faster at every size.
    for nodes in (8, 16, 32):
        assert sweep[(nodes, 4)] < sweep[(nodes, 1)]
    # (a') growth with n is mild: 8x replicas « 8x time (log-ish).
    assert sweep[(32, 1)] < 4 * sweep[(4, 1)]

    bytes_used = {s: merkle_vs_full_bytes(s) for s in ("full", "merkle")}
    emit(capsys, render_table(
        ["strategy", "bytes to reconcile 1 changed key (300-key db)"],
        [[s, b] for s, b in bytes_used.items()],
        title="E4b: anti-entropy bandwidth ablation",
    ))
    # (b) Merkle crushes full-state shipping when nearly converged.
    assert bytes_used["merkle"] < bytes_used["full"] / 5

    benchmark.pedantic(convergence_time, args=(8, 2), rounds=3, iterations=1)
