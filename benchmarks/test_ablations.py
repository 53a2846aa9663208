"""Design-choice ablations called out in DESIGN.md.

* A1: read repair on/off — how fast do home replicas heal after a
  W=1 write, without anti-entropy?
* A2: LWW vs sibling conflict handling — concurrent updates lost vs
  kept, measured over a contended workload.
* A3: strict vs sloppy quorums at increasing partition severity
  (E5 covers one point; this sweeps the split).

All three build their stores through the registry; A2/A3 run through
the workload driver, A1 keeps its bespoke crash/recover script but
speaks to the store session surface.
"""

import pytest

from common import emit
from repro import Network, Simulator, spawn
from repro.analysis import render_table
from repro.api import registry
from repro.sim import FixedLatency
from repro.workload import OpSpec, WorkloadDriver


# ----------------------------------------------------------------------
# A1: read repair
# ----------------------------------------------------------------------

def run_read_repair(enabled, seed=3):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=FixedLatency(3.0))
    store = registry.build("quorum", sim, net, nodes=5, n=3, r=3, w=1,
                           read_repair=enabled, hint_interval=None)
    session = store.session()
    homes = store.ring.preference_list("k", 3)
    victim_id = homes[1]
    victim = store.replica(victim_id)
    healed = {}

    def script():
        store.crash(victim_id)
        yield session.put("k", "v")    # lands on 2 of 3 homes
        store.recover(victim_id)
        yield 30.0
        yield session.get("k")         # R=3 read sees the stale home
        yield 60.0
        healed["victim"] = victim.local_read("k")[0]

    spawn(sim, script())
    sim.run()
    return (healed["victim"] == "v",
            sim.metrics.counter("quorum.read_repairs").value)


# ----------------------------------------------------------------------
# A2: LWW vs siblings under concurrency
# ----------------------------------------------------------------------

def run_conflict_mode(mode, writers=4, seed=5):
    """`writers` clients blind-write one key concurrently; how many
    distinct written values survive to the converged state?"""
    sim = Simulator(seed=seed)
    net = Network(sim, latency=FixedLatency(4.0))
    protocol = "quorum" if mode == "lww" else "quorum_siblings"
    store = registry.build(protocol, sim, net, nodes=5, n=3, r=2, w=2)

    driver = WorkloadDriver(sim)
    for index in range(writers):
        driver.add_session(store.session(f"s{index}"),
                           [OpSpec("update", "hot", f"value-{index}")])
    driver.run()
    store.settle()
    snapshot = store.snapshots()[0]
    stored = snapshot.get("hot")
    if mode == "lww":
        return 1 if stored is not None else 0
    return len(stored)


# ----------------------------------------------------------------------
# A3: strict vs sloppy across partition severities
# ----------------------------------------------------------------------

def run_partition_severity(sloppy, cut_size, seed=7, attempts=6):
    """Cut ``cut_size`` of 6 nodes away from the client's side; count
    write successes from the client's (majority) side."""
    sim = Simulator(seed=seed)
    net = Network(sim, latency=FixedLatency(2.0))
    store = registry.build("quorum", sim, net, nodes=6, n=3, r=2, w=2,
                           sloppy=sloppy, replica_timeout=20.0,
                           op_deadline=150.0, client_timeout=300.0)
    nodes = store.ring.nodes
    far_side = nodes[:cut_size]
    session = store.session(coordinator=nodes[-1])
    net.partition(far_side)  # everyone else (incl. client) together

    driver = WorkloadDriver(sim)
    stats = driver.add_session(
        session,
        [spec for i in range(attempts)
         for spec in (OpSpec("update", f"key-{i}", i),
                      OpSpec("sleep", "", 10.0))],
    )
    driver.run()
    return stats.ok


def test_ablations(benchmark, capsys):
    # A1
    healed_on, repairs_on = run_read_repair(True)
    healed_off, repairs_off = run_read_repair(False)
    emit(capsys, render_table(
        ["read repair", "stale home healed by one read", "repair msgs"],
        [["on", healed_on, repairs_on], ["off", healed_off, repairs_off]],
        title="A1: read-repair ablation (W=1 write with one home down)",
    ))
    assert healed_on and not healed_off
    assert repairs_on > 0 and repairs_off == 0

    # A2
    lww_survivors = run_conflict_mode("lww")
    sibling_survivors = run_conflict_mode("siblings")
    emit(capsys, render_table(
        ["conflict handling", "surviving values (4 concurrent writers)"],
        [["LWW", lww_survivors], ["siblings (DVV)", sibling_survivors]],
        title="A2: conflict-handling ablation",
    ))
    assert lww_survivors == 1
    assert sibling_survivors >= 3   # concurrent writes preserved

    # A3
    rows = []
    for cut in (1, 2, 3):
        strict = run_partition_severity(False, cut)
        sloppy = run_partition_severity(True, cut)
        rows.append([f"{cut}/6 nodes cut", f"{strict}/6", f"{sloppy}/6"])
        assert sloppy >= strict
    emit(capsys, render_table(
        ["partition", "strict-quorum writes", "sloppy-quorum writes"],
        rows,
        title="A3: availability vs. partition severity",
    ))

    benchmark.pedantic(run_conflict_mode, args=("siblings",),
                       rounds=2, iterations=1)
