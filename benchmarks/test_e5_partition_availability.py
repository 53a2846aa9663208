"""E5 ("Figure 4"): availability under partition — CAP, measured.

Claim: during a partition, (a) a sloppy-quorum store keeps accepting
writes on *both* sides (hinted handoff) and reconciles afterwards;
(b) a strict-quorum store rejects operations on the minority side;
(c) a Paxos group rejects everything that can't reach a majority.

Both stores are built through the registry and driven by the workload
driver; per-side success counts come from the driver's per-lane stats.
"""

import pytest

from common import emit
from repro import Network, Simulator
from repro.analysis import render_table
from repro.api import registry
from repro.sim import FixedLatency
from repro.workload import OpSpec, WorkloadDriver

OPS_PER_SIDE = 8


def side_ops(side, pause=20.0):
    return [
        spec
        for i in range(OPS_PER_SIDE)
        for spec in (OpSpec("update", f"{side}-key-{i}", i),
                     OpSpec("sleep", "", pause))
    ]


def run_dynamo_partition(sloppy, seed=2):
    """5 nodes split 3/2; a client on each side writes during the
    partition.  Returns (majority-side successes, minority-side
    successes, converged-after-heal)."""
    sim = Simulator(seed=seed)
    net = Network(sim, latency=FixedLatency(2.0))
    store = registry.build("quorum", sim, net, nodes=5, n=3, r=2, w=2,
                           sloppy=sloppy, replica_timeout=20.0,
                           op_deadline=150.0, client_timeout=300.0,
                           hint_interval=30.0)
    nodes = store.ring.nodes
    majority, minority = nodes[:3], nodes[3:]
    major = store.session("major", coordinator=majority[0])
    minor = store.session("minor", coordinator=minority[0])
    net.partition([major.client_id] + majority,
                  [minor.client_id] + minority)

    driver = WorkloadDriver(sim)
    major_stats = driver.add_session(major, side_ops("major"))
    minor_stats = driver.add_session(minor, side_ops("minor"))
    driver.run()
    net.heal()
    sim.run(until=sim.now + 1_000.0)
    store.settle()
    snapshots = store.snapshots()
    converged = all(s == snapshots[0] for s in snapshots[1:])
    return major_stats.ok, minor_stats.ok, converged


def run_paxos_partition(minority_side, seed=2):
    """3-node Paxos group; the client + leader land with either the
    majority (2 nodes) or the minority (1 node)."""
    sim = Simulator(seed=seed)
    net = Network(sim, latency=FixedLatency(2.0))
    store = registry.build("multipaxos", sim, net, nodes=3)
    session = store.session("px")
    leader = store.leader.node_id
    others = [n for n in store.node_ids if n != leader]
    if minority_side:
        net.partition([session.client_id, leader])          # leader alone
    else:
        net.partition([session.client_id, leader, others[0]])  # leader + 1

    driver = WorkloadDriver(sim)
    stats = driver.add_session(
        session,
        [spec for i in range(OPS_PER_SIDE)
         for spec in (OpSpec("update", f"key-{i}", i),
                      OpSpec("sleep", "", 10.0))],
        timeout=200.0,
    )
    driver.run()
    return stats.ok


def test_e5_partition_availability(benchmark, capsys):
    strict = run_dynamo_partition(sloppy=False)
    sloppy = run_dynamo_partition(sloppy=True)
    paxos_major = run_paxos_partition(minority_side=False)
    paxos_minor = run_paxos_partition(minority_side=True)

    emit(capsys, render_table(
        ["system", "majority-side writes", "minority-side writes",
         "converged after heal"],
        [
            ["dynamo strict quorum", f"{strict[0]}/{OPS_PER_SIDE}",
             f"{strict[1]}/{OPS_PER_SIDE}", strict[2]],
            ["dynamo sloppy quorum", f"{sloppy[0]}/{OPS_PER_SIDE}",
             f"{sloppy[1]}/{OPS_PER_SIDE}", sloppy[2]],
            ["paxos (leader w/ majority)", f"{paxos_major}/{OPS_PER_SIDE}",
             "-", "n/a"],
            ["paxos (leader in minority)", "-",
             f"{paxos_minor}/{OPS_PER_SIDE}", "n/a"],
        ],
        title="E5: write availability during a 3/2 partition "
              f"({OPS_PER_SIDE} attempts per side)",
    ))

    # (a) sloppy quorums stay available on both sides and converge.
    assert sloppy[0] == OPS_PER_SIDE and sloppy[1] == OPS_PER_SIDE
    assert sloppy[2] is True
    # (b) strict quorums lose some keys whose home replicas straddle
    #     the cut; sloppy strictly dominates strict in availability.
    assert strict[0] + strict[1] < sloppy[0] + sloppy[1]
    # (c) Paxos: majority side fine, minority side completely down.
    assert paxos_major == OPS_PER_SIDE
    assert paxos_minor == 0

    benchmark.pedantic(run_dynamo_partition, args=(True,),
                       rounds=2, iterations=1)
