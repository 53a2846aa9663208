"""Tests for PNUTS-style timeline consistency and chain replication."""

import pytest

from repro.api import registry
from repro.checkers import (
    check_convergence,
    check_linearizability,
    check_monotonic_reads,
    check_read_your_writes,
    stale_read_fraction,
)
from repro.errors import NotLeaderError
from repro.replication import ChainCluster, TimelineCluster
from repro.sim import FixedLatency, Network, Simulator, spawn
from repro.workload import OpSpec, WorkloadDriver


def make_timeline(seed=0, latency=3.0, **kwargs):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=FixedLatency(latency))
    cluster = TimelineCluster(sim, net, **kwargs)
    return sim, net, cluster


def store_and_driver(name, seed=0, latency=3.0, **build):
    """Store ``name`` behind its adapter, and a driver to record its
    history."""
    sim = Simulator(seed=seed)
    net = Network(sim, latency=FixedLatency(latency))
    return registry.build(name, sim, net, **build), WorkloadDriver(sim)


def write_read_rounds(rounds, pause):
    """Per round: write ``rec``, read it back, pause."""
    return [
        spec
        for i in range(rounds)
        for spec in (OpSpec("update", "rec", i), OpSpec("read", "rec"),
                     OpSpec("sleep", "", pause))
    ]


def remote_home(store):
    """A replica that is not ``rec``'s master."""
    master = store.master_of("rec")
    return next(n for n in store.node_ids if n != master)


# ----------------------------------------------------------------------
# Timeline (PNUTS)
# ----------------------------------------------------------------------

def test_writes_funnel_through_record_master():
    sim, _net, cluster = make_timeline()
    client = cluster.connect()
    out = {}

    def script():
        out["v1"] = yield client.write("rec", "a")
        out["v2"] = yield client.write("rec", "b")

    spawn(sim, script())
    sim.run()
    assert (out["v1"], out["v2"]) == (1, 2)
    master = cluster.replica(cluster.master_of("rec"))
    assert master.data["rec"] == ("b", 2)


def test_write_via_non_master_is_forwarded():
    sim, _net, cluster = make_timeline()
    master = cluster.master_of("rec")
    other = next(n for n in cluster.node_ids if n != master)
    client = cluster.connect()
    out = {}

    def script():
        # Address the write at a non-master replica explicitly.
        from repro.replication.timeline import TWrite

        out["version"] = yield client.request(other, TWrite("rec", "x"))

    spawn(sim, script())
    sim.run()
    assert out["version"] == 1
    assert cluster.replica(master).data["rec"] == ("x", 1)


def test_read_any_is_fast_but_may_be_stale():
    sim, _net, cluster = make_timeline(propagation_delay=80.0)
    master = cluster.master_of("rec")
    other = next(n for n in cluster.node_ids if n != master)
    writer = cluster.connect(session="w")
    reader = cluster.connect(session="r", home=other)
    out = {}

    def script():
        yield writer.write("rec", "fresh")
        out["stale"] = yield reader.read_any("rec")
        yield 300.0
        out["later"] = yield reader.read_any("rec")

    spawn(sim, script())
    sim.run()
    assert out["stale"] == (None, 0)       # propagation lag
    assert out["later"] == ("fresh", 1)    # timeline caught up


def test_read_latest_always_fresh():
    sim, _net, cluster = make_timeline(propagation_delay=200.0)
    client = cluster.connect()
    out = {}

    def script():
        yield client.write("rec", "v")
        out["latest"] = yield client.read_latest("rec")

    spawn(sim, script())
    sim.run()
    assert out["latest"] == ("v", 1)


def test_read_critical_waits_for_session_floor():
    sim, _net, cluster = make_timeline(propagation_delay=120.0)
    master = cluster.master_of("rec")
    other = next(n for n in cluster.node_ids if n != master)
    client = cluster.connect(home=other)
    out = {}

    def script():
        yield client.write("rec", "mine")   # floor becomes 1
        before = sim.now
        out["read"] = yield client.read_critical("rec")
        out["waited"] = sim.now - before

    spawn(sim, script())
    sim.run()
    assert out["read"] == ("mine", 1)
    assert out["waited"] > 50.0  # had to wait for propagation


def test_read_critical_gives_ryw_and_monotonic_reads():
    store, driver = store_and_driver("timeline", seed=2,
                                     propagation_delay=60.0)
    driver.add_session(store.session(home=remote_home(store)),
                       write_read_rounds(5, pause=10.0), read_mode="critical")
    history = driver.run().history
    assert check_read_your_writes(history).ok
    assert check_monotonic_reads(history).ok


def test_read_any_violates_ryw_under_lag():
    store, driver = store_and_driver("timeline", seed=3,
                                     propagation_delay=150.0)
    driver.add_session(store.session(home=remote_home(store)),
                       write_read_rounds(4, pause=5.0), read_mode="any")
    history = driver.run().history
    assert not check_read_your_writes(history).ok
    assert stale_read_fraction(history) > 0


def test_timeline_never_forks_replicas_converge():
    store, driver = store_and_driver("timeline", seed=4,
                                     propagation_delay=30.0)
    for n in range(3):
        driver.add_session(
            store.session(f"s{n}"),
            [OpSpec("update", "rec", f"s{n}-{i}") for i in range(5)],
            think_time=7.0,
        )
    history = driver.run().history
    store.sim.run(until=store.sim.now + 500.0)
    assert check_convergence(store.snapshots()).ok
    # All versions 1..15 were assigned exactly once (single master).
    versions = sorted(op.version for op in history.writes())
    assert versions == list(range(1, 16))


def test_mastership_migration():
    sim, _net, cluster = make_timeline()
    new_master = cluster.node_ids[2]
    cluster.set_master("rec", new_master)
    assert cluster.master_of("rec") == new_master
    with pytest.raises(Exception):
        cluster.set_master("rec", "nonexistent")


# ----------------------------------------------------------------------
# Chain replication
# ----------------------------------------------------------------------

def make_chain(seed=0, latency=5.0, nodes=3):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=FixedLatency(latency))
    cluster = ChainCluster(sim, net, nodes=nodes)
    return sim, net, cluster


def test_chain_write_acked_by_tail_then_read_fresh():
    sim, _net, cluster = make_chain()
    client = cluster.connect()
    out = {}

    def script():
        out["version"] = yield client.put("k", "v")
        out["read"] = yield client.get("k")

    spawn(sim, script())
    sim.run()
    assert out["version"] == 1
    assert out["read"] == ("v", 1)
    # Every link holds the write once acked.
    assert check_convergence(cluster.snapshots()).ok


def test_chain_write_latency_grows_with_length():
    times = {}
    for nodes in (2, 5):
        sim, _net, cluster = make_chain(nodes=nodes, latency=10.0)
        client = cluster.connect()
        done = {}

        def script():
            yield client.put("k", "v")
            done["t"] = sim.now

        spawn(sim, script())
        sim.run()
        times[nodes] = done["t"]
    # 2-node chain: client->head, head->tail, ack->head, reply = 4 hops.
    assert times[2] == pytest.approx(40.0)
    # 5-node chain: client->head + 4 forwards + ack + reply = 7 hops.
    assert times[5] == pytest.approx(70.0)


def test_chain_reads_only_at_tail_writes_only_at_head():
    sim, _net, cluster = make_chain()
    client = cluster.connect()
    from repro.replication.chain import CGet, CPut

    out = {}

    def script():
        try:
            yield client.request(cluster.tail.node_id, CPut("k", 1))
        except NotLeaderError:
            out["write_rejected"] = True
        try:
            yield client.request(cluster.head.node_id, CGet("k"))
        except NotLeaderError:
            out["read_rejected"] = True

    spawn(sim, script())
    sim.run()
    assert out == {"write_rejected": True, "read_rejected": True}


def test_chain_history_linearizable():
    store, driver = store_and_driver("chain", seed=5, latency=4.0, nodes=4)
    driver.add_session(store.session("w"),
                       [OpSpec("update", "k", i) for i in range(6)],
                       think_time=6.0)
    driver.add_session(store.session("r"),
                       [OpSpec("sleep", "", 3.0)] + [OpSpec("read", "k")] * 8,
                       think_time=5.0)
    history = driver.run().history
    assert len(history.completed) == 14
    assert check_linearizability(history).ok


def test_single_node_chain_works():
    sim, _net, cluster = make_chain(nodes=1)
    client = cluster.connect()
    out = {}

    def script():
        out["version"] = yield client.put("k", "solo")
        out["read"] = yield client.get("k")

    spawn(sim, script())
    sim.run()
    assert out["read"] == ("solo", 1)


def test_chain_requires_at_least_one_node():
    sim = Simulator()
    net = Network(sim)
    with pytest.raises(ValueError):
        ChainCluster(sim, net, nodes=0)
