"""Unit tests for the protocol-agnostic workload driver."""

import pytest

from repro import Network, Simulator
from repro.api import registry
from repro.sharding import ShardedStore
from repro.sim import FixedLatency
from repro.workload import (
    OpenLoopDriver,
    OpSpec,
    WorkloadDriver,
    YCSBWorkload,
    run_workload,
)


def build(protocol="quorum", seed=1, **kwargs):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=FixedLatency(2.0))
    return sim, registry.build(protocol, sim, net, nodes=3, **kwargs)


def test_lane_stats_and_history():
    sim, store = build()
    driver = WorkloadDriver(sim)
    ops = [
        OpSpec("insert", "a", 1),
        OpSpec("sleep", "", 25.0),
        OpSpec("update", "a", 2),
        OpSpec("read", "a"),
        OpSpec("read", "b"),
    ]
    stats = driver.add_session(store.session("lane-1"), ops)
    result = driver.run()

    assert stats.name == "lane-1"
    assert stats.ops == 4               # sleeps pace the lane, not ops
    assert stats.ok == 4
    assert stats.failed == 0
    assert stats.writes == 2 and stats.reads == 2 and stats.rmw == 0
    # sleeps produce no history events; reads+writes do.
    assert len(result.history) == 4
    assert result.read_latency.count == 2
    assert result.write_latency.count == 2
    assert result.duration >= 25.0
    assert result.throughput > 0


def test_rmw_composes_read_then_write():
    sim, store = build(seed=4)
    driver = WorkloadDriver(sim)
    ops = [
        OpSpec("insert", "counter", "1"),
        OpSpec("sleep", "", 10.0),
        OpSpec("rmw", "counter", "2"),
        OpSpec("sleep", "", 10.0),
        OpSpec("read", "counter"),
    ]
    captured = {}

    def rmw(old, fresh):
        captured["old"] = old
        return f"{old}+{fresh}"

    stats = driver.add_session(store.session(), ops, rmw_fn=rmw)
    result = driver.run()

    assert captured["old"] == "1"
    assert stats.rmw == 1
    # The rmw spec issued one read and one write on top of the
    # explicit insert + read.
    assert stats.reads == 2 and stats.writes == 2
    final_reads = [op for op in result.history
                   if op.kind == "read" and op.value == "1+2"]
    assert final_reads


def test_failures_are_recorded_not_raised():
    sim, store = build(client_timeout=50.0)
    session = store.session("cutoff")
    store.network.partition([session.client_id])
    driver = WorkloadDriver(sim)
    stats = driver.add_session(
        session,
        [OpSpec("update", "k", 1), OpSpec("read", "k")],
        timeout=50.0,
    )
    result = driver.run()
    assert stats.failed == 2 and stats.ok == 0
    assert result.ops_failed == 2
    # Failed ops never contribute latency samples.
    assert result.read_latency.count == 0
    assert result.write_latency.count == 0


def test_add_clients_shares_one_stream():
    sim, store = build(seed=9)
    driver = WorkloadDriver(sim)
    workload = YCSBWorkload("C", records=50, seed=2).take(40)
    lanes = driver.add_clients(store, clients=4, ops=workload)
    result = driver.run()
    assert len(lanes) == 4
    # The 40-op stream is divided among the lanes, not duplicated.
    assert sum(lane.ops for lane in lanes) == 40
    assert result.ops_ok == 40
    assert all(lane.ops > 0 for lane in lanes)


def test_unknown_op_rejected():
    sim, store = build()
    driver = WorkloadDriver(sim)
    driver.add_session(store.session(), [OpSpec("scan", "a", None)])
    with pytest.raises(ValueError):
        driver.run()


def test_result_before_start_reports_zero_duration():
    # Regression: result() before start() used to measure a phantom
    # duration from t=0 to wherever the sim clock happened to be.
    sim, store = build()
    sim.schedule(500.0, lambda: None)
    sim.run()
    driver = WorkloadDriver(sim)
    driver.add_session(store.session(), [OpSpec("read", "k")])
    result = driver.result()
    assert result.duration == 0.0
    assert result.throughput == 0.0


def test_until_cutoff_duration_never_negative():
    sim, store = build()
    driver = WorkloadDriver(sim)
    stats = driver.add_session(
        store.session(), [OpSpec("sleep", "", 100.0), OpSpec("read", "k")]
    )
    result = driver.run(until=10.0)        # cut the lane off mid-sleep
    assert result.duration == 10.0
    assert stats.ops == 0                  # the read never issued
    assert driver.result().duration >= 0.0


class _RecordingNemesis:
    def __init__(self):
        self.installed = False
        self.stopped = False

    def install(self, store):
        self.installed = True

    def stop(self):
        self.stopped = True


def test_run_workload_stops_nemesis_on_success():
    sim = Simulator(seed=3)
    net = Network(sim)
    store = ShardedStore(sim, net, protocol="quorum", shards=2,
                         nodes_per_shard=3)
    nemesis = _RecordingNemesis()
    run_workload(store, [OpSpec("update", "k", 1)], nemesis=nemesis)
    assert nemesis.installed and nemesis.stopped


def test_run_workload_stops_nemesis_when_run_raises():
    # Regression: a workload bug used to leak the installed nemesis
    # (its fault timers kept firing into the caller's simulator).
    sim, store = build()
    nemesis = _RecordingNemesis()
    with pytest.raises(ValueError):
        run_workload(store, [OpSpec("scan", "k", None)], nemesis=nemesis)
    assert nemesis.installed and nemesis.stopped


def test_run_workload_against_sharded_store():
    sim = Simulator(seed=3)
    net = Network(sim)
    store = ShardedStore(sim, net, protocol="quorum", shards=2,
                         nodes_per_shard=3)
    ops = [OpSpec("update", f"k{i}", i) for i in range(20)]
    result = run_workload(store, ops, clients=2)
    assert result.ops_ok == 20
    routed = store.routed_ops()
    assert sum(routed.values()) == 20
    assert len(routed) == 2


def test_closed_and_open_loop_record_identical_history_entries():
    """Two schedulers, one op-execution core: the same script against a
    CachedStore lands the same entries — tier stamps included, and the
    timed-out write keeping its attempted value."""
    write, read, rmw = (OpSpec("update", "k", "v1"), OpSpec("read", "k"),
                        OpSpec("rmw", "k", "v2"))

    def cached_store_losing_its_replicas_at_30ms():
        sim = Simulator(seed=1)
        net = Network(sim, latency=FixedLatency(2.0))
        store = registry.build("cached", sim, net, protocol="quorum",
                               policy="write_through", nodes=3, ttl=500.0)
        servers = [net.node(i) for i in store.server_ids()]
        sim.schedule(30.0, lambda: [node.crash() for node in servers])
        return sim, store

    def entries(history):
        return [(op.kind, op.key, op.value, op.version, op.tier,
                 op.completed) for op in history]

    sim, store = cached_store_losing_its_replicas_at_30ms()
    driver = WorkloadDriver(sim)
    driver.add_session(
        store.session("c"),
        [write, OpSpec("sleep", "", 10.0), read, OpSpec("sleep", "", 30.0),
         rmw],
        timeout=20.0,
    )
    closed = driver.run()

    _sim, store = cached_store_losing_its_replicas_at_30ms()
    opened = OpenLoopDriver(store, [0.0, 15.0, 50.0],
                            [write, read, rmw], sessions=1,
                            timeout=20.0).run()

    assert entries(closed.history) == entries(opened.history) == [
        ("write", "k", "v1", 1, "store", True),
        ("read", "k", "v1", 1, "cache", True),
        ("read", "k", "v1", 1, "cache", True),      # the rmw's read half
        ("write", "k", "v2", 0, None, False),       # timed out, value kept
    ]
    assert (closed.ops_ok, closed.ops_failed) == (opened.ok, opened.failed) \
        == (2, 1)
