"""Integration tests for the Dynamo-style partial-quorum engine.

The engine is one coordinator with two conflict strategies; everything
about quorums, hints, repair and convergence is checked over both,
followed by what is specific to LWW stamps and to sibling sets.
"""

import pytest

from repro.api import registry
from repro.cache import CachedStore
from repro.chaos import PLANS, Nemesis
from repro.checkers import check_linearizability, stale_read_fraction
from repro.errors import QuorumError, TimeoutError as ReproTimeoutError
from repro.replication import DynamoCluster, SiblingDynamoCluster
from repro.replication.quorum import DottedSiblings, DynamoNode
from repro.sharding import ShardedStore
from repro.sim import (
    ExponentialLatency,
    FixedLatency,
    Network,
    Simulator,
    Tracer,
    spawn,
)
from repro.sim.trace import filter_events
from repro.workload import OpSpec, WorkloadDriver, YCSBWorkload, run_workload

BOTH = pytest.mark.parametrize(
    "cluster_cls", [DynamoCluster, SiblingDynamoCluster],
    ids=["lww", "siblings"],
)


def make_cluster(cluster_cls=DynamoCluster, seed=0, latency=2.0, **kwargs):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=FixedLatency(latency))
    kwargs.setdefault("nodes", 5)
    kwargs.setdefault("n", 3)
    cluster = cluster_cls(sim, net, **kwargs)
    return sim, net, cluster


def run_script(sim, client, script):
    out = {}
    spawn(sim, script(out, client))
    sim.run()
    return out


def shown(cluster, value):
    """What a read of a key holding just ``value`` shows a client."""
    return [value] if isinstance(cluster, SiblingDynamoCluster) else value


def counted(cluster, name):
    """The engine's counter ``name`` under its strategy's metric prefix."""
    return cluster.sim.metrics.counter(
        f"{cluster.conflicts.metrics}.{name}").value


def held(cluster, node_id, key):
    return cluster.replica(node_id).local_read(key)[0]


def try_put(out, client):
    try:
        yield client.put("k", "v", timeout=600.0)
        out["result"] = "ok"
    except (QuorumError, ReproTimeoutError) as exc:
        out["result"] = type(exc).__name__
        out["error"] = str(exc)


def cut_homes_but_first(net, cluster, client, keep_fallbacks):
    """Partition the client and the key's first home (the coordinator)
    away from the other homes; optionally keep the non-home nodes."""
    homes = cluster.ring.preference_list("k", cluster.n)
    reachable = [client.node_id, homes[0]]
    if keep_fallbacks:
        reachable += [n for n in cluster.ring.nodes if n not in homes]
    net.partition(reachable)
    return homes


# ---------------------------------------------------------------------------
# Both strategies
# ---------------------------------------------------------------------------


@BOTH
def test_put_then_get_sees_value_with_strong_quorum(cluster_cls):
    sim, _net, cluster = make_cluster(cluster_cls, r=2, w=2)
    client = cluster.connect()

    def script(out, client):
        yield client.put("cart", ["milk"])
        out["value"], out["context"] = yield client.get("cart")

    out = run_script(sim, client, script)
    assert out["value"] == shown(cluster, ["milk"])
    assert out["context"]  # a stamp / a non-empty causal context


@BOTH
def test_read_repair_heals_stale_homes(cluster_cls):
    tracer = Tracer()
    sim = Simulator(seed=6, tracer=tracer)
    net = Network(sim, latency=FixedLatency(2.0))
    cluster = cluster_cls(sim, net, nodes=5, n=3, r=3, w=1, read_repair=True)
    client = cluster.connect()

    def script(out, client):
        yield client.put("k", "v")
        yield 100.0  # let the W=1 write settle where it can
        yield client.get("k")   # R=3 read triggers repair of stale homes
        yield 100.0

    run_script(sim, client, script)
    homes = cluster.ring.preference_list("k", cluster.n)
    assert [held(cluster, home, "k") for home in homes] == (
        [shown(cluster, "v")] * len(homes)
    )
    repairs = [e for e in tracer.events if e.data.get("category") == "read_repair"]
    assert len(repairs) == counted(cluster, "read_repairs")


@BOTH
def test_strict_quorum_fails_when_too_few_replicas_reachable(cluster_cls):
    sim, net, cluster = make_cluster(cluster_cls, r=2, w=2, sloppy=False, seed=5)
    client = cluster.connect()
    cut_homes_but_first(net, cluster, client, keep_fallbacks=False)
    out = run_script(sim, client, try_put)
    assert out["result"] in ("QuorumError", "TimeoutError")
    assert (counted(cluster, "writes_failed") >= 1
            or out["result"] == "TimeoutError")


@BOTH
def test_expired_operations_are_counted(cluster_cls):
    sim, net, cluster = make_cluster(cluster_cls, r=2, w=2, seed=5)
    client = cluster.connect()
    cut_homes_but_first(net, cluster, client, keep_fallbacks=False)

    def script(out, client):
        for op in (client.put("k", "v"), client.get("k")):
            try:
                yield op
            except QuorumError as exc:
                out.setdefault("errors", []).append(str(exc))

    out = run_script(sim, client, script)
    assert len(out["errors"]) == 2
    assert counted(cluster, "writes_failed") == 1
    assert counted(cluster, "reads_failed") == 1


@BOTH
def test_sloppy_quorum_succeeds_via_hinted_handoff(cluster_cls):
    tracer = Tracer()
    sim = Simulator(seed=5, tracer=tracer)
    net = Network(sim, latency=FixedLatency(2.0))
    cluster = cluster_cls(sim, net, nodes=6, n=3, r=2, w=2, sloppy=True)
    client = cluster.connect()
    # Two of the three homes are cut off; the coordinator is the first
    # home (reachable), fallbacks on the ring take the hints.
    cut_homes_but_first(net, cluster, client, keep_fallbacks=True)
    out = run_script(sim, client, try_put)
    assert out["result"] == "ok"
    assert counted(cluster, "hinted_writes") >= 1
    hinted = [e for e in tracer.events if e.data.get("category") == "hinted_write"]
    assert len(hinted) == counted(cluster, "hinted_writes")


@BOTH
def test_hints_delivered_after_partition_heals(cluster_cls):
    sim, net, cluster = make_cluster(
        cluster_cls, r=2, w=2, sloppy=True, seed=5, nodes=6,
        hint_interval=30.0,
    )
    client = cluster.connect()
    homes = cut_homes_but_first(net, cluster, client, keep_fallbacks=True)
    out = run_script(sim, client, try_put)
    assert out["result"] == "ok"
    net.heal()
    sim.run(until=sim.now + 500.0)
    assert counted(cluster, "hints_delivered") >= 1
    for home in homes:
        assert held(cluster, home, "k") == shown(cluster, "v")


@BOTH
def test_anti_entropy_sweep_converges_snapshots(cluster_cls):
    sim, _net, cluster = make_cluster(cluster_cls, r=1, w=1, seed=2)
    client = cluster.connect()

    def script(out, client):
        for i in range(5):
            yield client.put(f"key-{i}", i)

    run_script(sim, client, script)
    cluster.settle()
    snapshots = cluster.snapshots()
    reference = snapshots[0]
    assert all(snapshot == reference for snapshot in snapshots)
    assert len(reference) == 5


@BOTH
def test_concurrent_writers_converge_after_sweep(cluster_cls):
    sim, _net, cluster = make_cluster(
        cluster_cls, r=2, w=2, coordinator_policy="random", seed=9,
    )
    clients = [cluster.connect(session=f"s{i}") for i in range(3)]

    def script(client):
        for i in range(4):
            yield client.put("shared", (client.session, i))
            yield 7.0

    for client in clients:
        spawn(sim, script(client))
    sim.run()
    assert counted(cluster, "writes_succeeded") == 12
    cluster.settle()
    snapshots = cluster.snapshots()
    assert all(s == snapshots[0] for s in snapshots)


@BOTH
def test_duplicated_acks_count_once_per_replica(cluster_cls):
    """A quorum is W (or R) *distinct* replicas: with the network
    duplicating nearly every message and one of three homes down, W=3
    and R=3 must fail, not be filled by a second copy of an ack."""
    sim = Simulator(seed=1)
    net = Network(sim, latency=FixedLatency(2.0), duplicate_rate=0.99)
    cluster = cluster_cls(
        sim, net, nodes=3, n=3, r=3, w=3, hint_interval=None,
    )
    client = cluster.connect()
    coordinator = cluster.ring.coordinator("k")
    victim = next(n for n in cluster.ring.nodes if n != coordinator)
    cluster.replica(victim).crash()
    out = run_script(sim, client, try_put)
    assert out["result"] == "QuorumError"
    assert "write quorum not met" in out["error"] and "(2/3)" in out["error"]

    def read(out, client):
        try:
            yield client.get("k")
            out["result"] = "ok"
        except QuorumError as exc:
            out["result"] = str(exc)

    out = run_script(sim, client, read)
    assert "read quorum not met" in out["result"] and "(2/3)" in out["result"]


@BOTH
def test_coordinator_forgets_pending_ops_at_crash(cluster_cls):
    """The pending-op table is volatile.  A write is in flight, its acks
    held back 50 ms each way; the coordinator crashes at 10 and is back
    at 20.  The acks that arrive at ~103 must not make the recovered
    node acknowledge, from memory it should have lost, a request of its
    previous incarnation."""
    tracer = Tracer()
    sim = Simulator(seed=1, tracer=tracer)
    net = Network(sim, latency=FixedLatency(1.0))
    cluster = cluster_cls(sim, net, nodes=3, n=3, r=2, w=2, hint_interval=None)
    client = cluster.connect()
    coordinator = cluster.replica(cluster.ring.coordinator("k"))
    for other in cluster.ring.nodes:
        if other != coordinator.node_id:
            net.set_link_fault(coordinator.node_id, other, extra_delay=50.0)
    sim.schedule(10.0, coordinator.crash)
    sim.schedule(20.0, coordinator.recover)
    out = run_script(sim, client, try_put)
    acks = filter_events(tracer.events, kind="msg_deliver", msg_type="StoreAck",
                         dst=coordinator.node_id, since=20.0)
    assert len(acks) == 2 and not coordinator.crashed  # they did arrive
    assert filter_events(tracer.events, kind="msg_send", msg_type="Reply") == []
    assert out["result"] == "TimeoutError"
    assert counted(cluster, "writes_succeeded") == 0
    assert coordinator._ops == {}


def _sample_pending(sim, net, samples):
    """Sample, every 2 ms of the run, how many ops the Dynamo nodes on
    ``net`` hold pending between them; returns the nodes."""
    nodes = [node for node in map(net.node, net.node_ids)
             if isinstance(node, DynamoNode)]

    def probe():
        samples.append(sum(len(node._ops) for node in nodes))
        sim.schedule_daemon(2.0, probe)

    probe()
    return nodes


def test_pending_op_table_holds_undecided_ops_only():
    """An op leaves ``_ops`` at its quorum, not ``op_deadline`` (forty
    op lifetimes) later: 8 closed-loop clients never have more than 8
    ops undecided, and a finished run leaves none."""
    sim = Simulator(seed=3)
    net = Network(sim, latency=ExponentialLatency(base=0.3, mean=1.0))
    store = registry.build("quorum", sim, net, nodes=5, r=2, w=2)
    samples = []
    nodes = _sample_pending(sim, net, samples)
    result = run_workload(store, YCSBWorkload("A", records=100, seed=4).take(400),
                          clients=8, timeout=60_000.0)
    assert result.ops_ok == 400 and len(nodes) == 5
    assert len(samples) > 50 and 0 < max(samples) <= 8
    assert [node._ops for node in nodes] == [{}] * 5


def test_pending_op_table_is_empty_after_chaos_heals():
    """Crashes, partitions and drops leave ops undecided; each is gone
    by its deadline or its coordinator's crash, so after heal + settle
    no node of the composed stack (cache over sharded sibling quorums)
    remembers one."""
    sim = Simulator(seed=42)
    net = Network(sim, latency=ExponentialLatency(base=0.3, mean=1.0))
    store = CachedStore(
        ShardedStore(sim, net, protocol="quorum_siblings", shards=4,
                     nodes_per_shard=3, service_time=0.5),
        policy="write_through", ttl=200.0, capacity=256)
    samples = []
    nodes = _sample_pending(sim, net, samples)
    nemesis = Nemesis(PLANS["mixed"], seed=46)
    result = run_workload(store, YCSBWorkload("B", records=1000, seed=43).take(600),
                          clients=8, timeout=400.0, nemesis=nemesis)
    assert result.ops_failed > 0 and max(samples) > 0  # the faults bit
    nemesis.heal_all()
    sim.run()
    for _ in range(2):
        store.settle()
        sim.run()
    assert len(nodes) == 12
    assert [node._ops for node in nodes] == [{}] * 12


@BOTH
def test_cluster_parameter_validation(cluster_cls):
    sim = Simulator()
    net = Network(sim)
    with pytest.raises(ValueError):
        cluster_cls(sim, net, nodes=3, n=3, r=4, w=1)
    with pytest.raises(ValueError):
        cluster_cls(sim, net, nodes=3, n=3, r=0)
    with pytest.raises(ValueError):
        cluster_cls(sim, net, nodes=2, n=3)
    with pytest.raises(ValueError):
        cluster_cls(sim, net, coordinator_policy="nearest")


# ---------------------------------------------------------------------------
# A home coordinator serves its own replica in-process, never by message
# ---------------------------------------------------------------------------


def loopback_sends(tracer):
    return [event for event in filter_events(tracer.events, kind="msg_send")
            if event.data["src"] == event.data["dst"]]


@BOTH
def test_r1_get_and_w1_put_at_a_home_coordinator_decide_in_process(cluster_cls):
    """With 2 ms links, the client's round trip is all either op costs:
    the coordinator's own copy is the quorum, so it answers in the event
    the request arrived in and arms no op deadline."""
    tracer = Tracer()
    sim = Simulator(seed=3, tracer=tracer)
    net = Network(sim, latency=FixedLatency(2.0))
    cluster = cluster_cls(sim, net, nodes=5, n=3, r=1, w=1, hint_interval=None)
    client = cluster.connect()
    coordinator = cluster.replica(cluster.ring.coordinator("k"))
    out = {}

    def script(out, client):
        yield client.put("k", "v")
        out["put"] = sim.now
        out["value"] = (yield client.get("k"))[0]
        out["get"] = sim.now

    spawn(sim, script(out, client))
    for instant in (4.5, 8.5):   # just after the put's and the get's reply
        sim.run(until=instant)
        assert coordinator._ops == {} and coordinator._lanes == {}
    sim.run()
    assert (out["put"], out["get"]) == (4.0, 8.0)
    assert out["value"] == shown(cluster, "v")
    assert loopback_sends(tracer) == []
    stores = filter_events(tracer.events, kind="msg_send", msg_type="StoreMsg")
    assert len(stores) == cluster.n - 1   # the other homes still get the write


@BOTH
def test_r2_read_fetches_from_the_other_homes_only(cluster_cls):
    tracer = Tracer()
    sim = Simulator(seed=3, tracer=tracer)
    net = Network(sim, latency=FixedLatency(2.0))
    cluster = cluster_cls(sim, net, nodes=5, n=3, r=2, w=2)
    client = cluster.connect()

    def script(out, client):
        out["value"] = (yield client.get("k"))[0]

    out = run_script(sim, client, script)
    assert out["value"] == ([] if cluster_cls is SiblingDynamoCluster else None)
    fetches = filter_events(tracer.events, kind="msg_send", msg_type="FetchMsg")
    assert len(fetches) == cluster.n - 1
    assert loopback_sends(tracer) == []


@BOTH
def test_read_repair_of_the_coordinators_own_copy_is_local(cluster_cls):
    """A write that missed the read's coordinator (its link to the write's
    coordinator down) is repaired there by the R=3 read, in-process."""
    tracer = Tracer()
    sim = Simulator(seed=3, tracer=tracer)
    net = Network(sim, latency=FixedLatency(2.0))
    cluster = cluster_cls(sim, net, nodes=5, n=3, r=3, w=2, hint_interval=None)
    homes = cluster.ring.preference_list("k", cluster.n)
    writer = cluster.connect(coordinator=homes[1])
    reader = cluster.connect()          # coordinated by homes[0]
    net.set_link_fault(homes[0], homes[1], down=True)
    out = run_script(sim, writer, try_put)
    assert out["result"] == "ok" and held(cluster, homes[0], "k") in (None, [])
    net.clear_link_faults()

    def read(out, client):
        out["value"] = (yield client.get("k"))[0]
        out["own"] = held(cluster, homes[0], "k")   # the instant it resolved

    out = run_script(sim, reader, read)
    assert out["value"] == out["own"] == shown(cluster, "v")
    assert counted(cluster, "read_repairs") == 1
    assert loopback_sends(tracer) == []
    assert [held(cluster, home, "k") for home in homes] == [shown(cluster, "v")] * 3


@BOTH
@pytest.mark.parametrize("sloppy", [False, True], ids=["strict", "sloppy"])
def test_a_write_arms_the_fallback_deadline_only_when_sloppy(cluster_cls, sloppy):
    sim, _net, cluster = make_cluster(cluster_cls, r=2, w=2, sloppy=sloppy,
                                      hint_interval=None)
    client = cluster.connect()
    coordinator = cluster.replica(cluster.ring.coordinator("k"))
    spawn(sim, try_put({}, client))
    sim.run(until=2.5)   # the request is in; the replicas' acks are not
    (op,) = coordinator._ops.values()
    delays = sorted(deadline._lane.delay for deadline in op.deadlines)
    assert delays == ([cluster.replica_timeout] if sloppy else []) + [cluster.op_deadline]


@BOTH
def test_a_coordinator_off_the_homes_keeps_its_own_hint(cluster_cls):
    """Sloppy quorum with every home cut off: the first stand-in on the
    ring is the coordinator itself, which holds that hint and counts its
    own ack in-process, then hands the hint off once the home is back."""
    tracer = Tracer()
    sim = Simulator(seed=3, tracer=tracer)
    net = Network(sim, latency=FixedLatency(2.0))
    cluster = cluster_cls(sim, net, nodes=6, n=3, r=2, w=2, sloppy=True,
                          hint_interval=30.0)
    homes = cluster.ring.preference_list("k", cluster.n)
    stand_ins = cluster.ring.fallbacks("k", exclude=set(homes))
    coordinator = cluster.replica(stand_ins[0])
    client = cluster.connect(coordinator=coordinator.node_id)
    net.partition([client.node_id, *stand_ins])
    out = run_script(sim, client, try_put)
    assert out["result"] == "ok"
    first_home = sorted(homes, key=str)[0]
    assert list(coordinator.hints) == [first_home]
    assert loopback_sends(tracer) == []
    net.heal()
    sim.run(until=sim.now + 200.0)
    assert held(cluster, first_home, "k") == shown(cluster, "v")
    assert coordinator.hints == {}


# ---------------------------------------------------------------------------
# LWW stamps: a total order, so histories have dense versions
# ---------------------------------------------------------------------------


def quorum_store(protocol="quorum", seed=0, latency=None, **kwargs):
    """A partial-quorum store behind its adapter, for runs whose history
    the workload driver records."""
    sim = Simulator(seed=seed)
    net = Network(sim, latency=latency or FixedLatency(2.0))
    kwargs.setdefault("nodes", 5)
    kwargs.setdefault("n", 3)
    return sim, net, registry.build(protocol, sim, net, **kwargs)


def write_ops(key, values):
    return [OpSpec("update", key, value) for value in values]


def read_ops(key, count, delay=0.0):
    return [OpSpec("sleep", "", delay)] + [OpSpec("read", key)] * count


def test_rw_quorum_overlap_yields_linearizable_history():
    # R + W > N on a healthy cluster: overlapping quorums.
    sim, _net, store = quorum_store(r=2, w=2, seed=3)
    driver = WorkloadDriver(sim)
    driver.add_session(store.session("a"), write_ops("k", range(8)),
                       think_time=10.0)
    driver.add_session(store.session("b"), read_ops("k", 10, delay=5.0),
                       think_time=9.0)
    history = driver.run().history
    assert len(history.completed) == 18
    assert check_linearizability(history).ok


def test_r1_w1_reads_can_be_stale():
    # Staleness under partial quorums needs latency *variance*: the
    # write acks after the fastest replica, and a racing R=1 read can
    # then hit a replica the write hasn't reached yet (the PBS effect).
    # The per-run rate is small (propagation is fast — exactly the PBS
    # observation that partial quorums are *usually* fresh), so this
    # aggregates a few seeded runs and requires staleness to show up
    # somewhere.  E2 quantifies the distribution properly.
    fractions = []
    for seed in (1, 6, 13, 14, 16):
        sim, _net, store = quorum_store(
            seed=seed, latency=ExponentialLatency(base=0.5, mean=15.0),
            r=1, w=1, coordinator_policy="random", read_repair=False,
        )
        driver = WorkloadDriver(sim)
        driver.add_session(store.session("w"),
                           write_ops("hot", range(30)), think_time=5.0)
        driver.add_session(store.session("r"),
                           read_ops("hot", 40, delay=3.0), think_time=4.0)
        fractions.append(stale_read_fraction(driver.run().history))
    assert sum(fractions) > 0.0
    assert max(fractions) < 0.5  # mostly fresh, as PBS predicts


def test_history_densifies_stamps_to_versions():
    sim, _net, store = quorum_store(r=2, w=2)
    ops = write_ops("k", ["v0", "v1", "v2"]) + [OpSpec("read", "k")]
    history = run_workload(store, ops).history
    writes = [op for op in history.writes()]
    assert sorted(op.version for op in writes) == [1, 2, 3]
    reads = history.reads()
    assert reads[0].version == 3


def test_history_accepts_unhashable_values_and_failed_writes():
    # The driver records whatever the application wrote; a list cannot
    # be tied back to a maybe-applied write, and must not break the
    # densifier either.
    sim, net, store = quorum_store(r=2, w=2, seed=5)
    session = store.session()

    def ops():
        yield OpSpec("update", "k", ["milk"])
        yield OpSpec("read", "k")
        # The lane asks for its next op once the read has finished.
        cut_homes_but_first(net, store, session.client,
                            keep_fallbacks=False)
        yield OpSpec("update", "k", ["eggs"])

    driver = WorkloadDriver(sim)
    driver.add_session(session, ops())
    result = driver.run()
    assert result.ops_failed == 1
    assert [(op.kind, op.version, op.end is None)
            for op in result.history] == [
        ("write", 1, False), ("read", 1, False), ("write", 0, True),
    ]


def test_lamport_stamps_give_total_order_across_coordinators():
    sim, _net, store = quorum_store(
        r=2, w=2, coordinator_policy="random", seed=9,
    )
    driver = WorkloadDriver(sim)
    for i in range(3):
        values = [(f"s{i}", n) for n in range(4)]
        driver.add_session(store.session(f"s{i}"),
                           write_ops("shared", values), think_time=7.0)
    history = driver.run().history
    versions = [op.version for op in history.writes()]
    assert len(versions) == len(set(versions)) == 12


# ---------------------------------------------------------------------------
# Sibling sets: concurrent writes are kept until a context covers them
# ---------------------------------------------------------------------------


def test_sibling_cluster_keeps_no_versioned_history():
    # Vector-clock contexts are only partially ordered, and the cluster
    # keeps no history: its adapter maps each context to a token the
    # driver densifies (chained writes supersede, so versions rise).
    sim, _net, store = quorum_store("quorum_siblings")
    assert not hasattr(store, "history")
    history = run_workload(
        store, write_ops("k", ["v1", "v2"]) + [OpSpec("read", "k")]
    ).history
    assert [(op.kind, op.version) for op in history] == [
        ("write", 1), ("write", 2), ("read", 2),
    ]


def test_chained_writes_supersede_no_siblings():
    sim, _net, cluster = make_cluster(SiblingDynamoCluster)
    client = cluster.connect()

    def script(out, client):
        yield client.put("k", "v1")
        yield client.put("k", "v2")   # context chained automatically
        yield client.put("k", "v3")
        out["read"] = yield client.get("k")

    out = run_script(sim, client, script)
    values, _context = out["read"]
    assert values == ["v3"]


def test_concurrent_blind_writes_become_siblings():
    sim, _net, cluster = make_cluster(SiblingDynamoCluster, seed=2)
    alice = cluster.connect(session="alice")
    bob = cluster.connect(session="bob")
    out = {}

    def alice_script():
        yield alice.put("k", "from-alice")

    def bob_script():
        yield bob.put("k", "from-bob")

    def reader_script():
        yield 100.0
        out["read"] = yield alice.get("k")

    spawn(sim, alice_script())
    spawn(sim, bob_script())
    spawn(sim, reader_script())
    sim.run()
    values, _context = out["read"]
    assert sorted(values) == ["from-alice", "from-bob"]


def test_sibling_wire_ships_one_clock_per_key():
    """A sibling is its dot and its value: a two-sibling state goes on
    the wire as ``(dot, value)`` pairs plus the key's one clock, and
    decodes to the same siblings in the same order."""
    a, b = DottedSiblings("n1"), DottedSiblings("n2")
    state = b.mint(a.mint(DottedSiblings.EMPTY, "x", {}), "y", {})
    siblings, clock = DottedSiblings.encode(state)
    assert siblings == ((("n1", 1), "x"), (("n2", 1), "y"))
    assert clock == {"n1": 1, "n2": 1}
    decoded = DottedSiblings.decode(siblings, clock)
    assert decoded.values() == ["x", "y"]
    assert not DottedSiblings.behind(decoded, state)


def test_read_then_write_resolves_siblings():
    sim, _net, cluster = make_cluster(SiblingDynamoCluster, seed=3)
    alice = cluster.connect(session="alice")
    bob = cluster.connect(session="bob")
    out = {}

    def script():
        yield alice.put("k", "a")
        yield bob.put("k", "b")      # concurrent: bob has no context
        yield 50.0
        values, _context = yield alice.get("k")
        out["siblings"] = sorted(values)
        yield alice.put("k", "merged")     # under the context just read
        yield 50.0
        out["resolved"] = (yield alice.get("k"))[0]

    spawn(sim, script())
    sim.run()
    assert out["siblings"] == ["a", "b"]
    assert out["resolved"] == ["merged"]


def test_cart_merge_no_lost_adds():
    """The Dynamo cart property: concurrent adds from two clients both
    survive, unlike LWW where one write silently wins."""
    sim, _net, cluster = make_cluster(SiblingDynamoCluster, seed=4)
    east = cluster.connect(session="east")
    west = cluster.connect(session="west")
    out = {}

    # A session writes under the context it last read.
    def east_script():
        yield east.get("cart")
        yield east.put("cart", ("milk",))

    def west_script():
        yield west.get("cart")
        yield west.put("cart", ("laptop",))

    def check_script():
        yield 100.0
        values, _ctx = yield east.get("cart")
        # Application-level merge of siblings:
        merged = sorted(item for sibling in values for item in sibling)
        yield east.put("cart", tuple(merged))
        yield 50.0
        out["final"] = (yield east.get("cart"))[0]

    spawn(sim, east_script())
    spawn(sim, west_script())
    spawn(sim, check_script())
    sim.run()
    assert out["final"] == [("laptop", "milk")]
