"""Tests for the request/reply layer, the protocol skeleton the five
single-group protocols share, and the hash ring."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    NotLeaderError,
    OverloadedError,
    SimulationError,
    TimeoutError as ReproTimeoutError,
)
from repro.replication import (
    CausalCluster,
    ChainCluster,
    DynamoCluster,
    HashRing,
    MultiPaxosCluster,
    PrimaryBackupCluster,
    TimelineCluster,
    stable_hash,
)
from repro.replication.common import ClientNode, ServerNode, VersionedReplica
from repro.replication.multipaxos import PutCmd, SubmitCmd
from repro.replication.quorum import QGet, QPut
from repro.rpc import RetryPolicy
from repro.sim import FixedLatency, Future, Network, Simulator


class EchoServer(ServerNode):
    def serve_str(self, src, payload):
        return payload.upper()

    def serve_int(self, src, payload):
        # Deferred reply via future.
        future = Future(self.sim)
        self.sim.schedule(5.0, future.resolve, payload * 2)
        return future

    def serve_float(self, src, payload):
        raise NotLeaderError("floats go elsewhere")

    def serve_list(self, src, payload):
        future = Future(self.sim)
        self.sim.schedule(2.0, future.fail, NotLeaderError("async failure"))
        return future


def setup():
    sim = Simulator(seed=1)
    net = Network(sim, latency=FixedLatency(1.0))
    server = EchoServer(sim, net, "server")
    client = ClientNode(sim, net, "client")
    return sim, net, server, client


def test_request_reply_roundtrip():
    sim, _net, _server, client = setup()
    future = client.request("server", "hello")
    sim.run()
    assert future.value == "HELLO"
    assert sim.now == 2.0  # one hop each way


def test_deferred_reply_via_future():
    sim, _net, _server, client = setup()
    future = client.request("server", 21)
    sim.run()
    assert future.value == 42
    assert sim.now == 7.0  # 1 + 5 + 1


def test_server_error_propagates_to_client():
    sim, _net, _server, client = setup()
    future = client.request("server", 3.14)
    sim.run()
    assert isinstance(future.error, NotLeaderError)


def test_async_server_failure_propagates():
    sim, _net, _server, client = setup()
    future = client.request("server", [1])
    sim.run()
    assert isinstance(future.error, NotLeaderError)
    assert "async failure" in str(future.error)


def test_timeout_fires_when_server_unreachable():
    sim, net, _server, client = setup()
    net.partition(["client"], ["server"])
    future = client.request("server", "hello", timeout=10.0)
    sim.run()
    assert isinstance(future.error, ReproTimeoutError)
    assert sim.now == 10.0


def test_late_reply_after_timeout_is_ignored():
    sim, _net, server, client = setup()
    # Deferred reply takes 7ms; timeout at 3ms.
    future = client.request("server", 21, timeout=3.0)
    sim.run()
    assert isinstance(future.error, ReproTimeoutError)  # no double-resolve crash


def test_crashed_server_never_replies():
    sim, _net, server, client = setup()
    server.crash()
    future = client.request("server", "hello", timeout=50.0)
    sim.run()
    assert isinstance(future.error, ReproTimeoutError)


# ----------------------------------------------------------------------
# Dedup eviction and overload control
# ----------------------------------------------------------------------

class CountingServer(ServerNode):
    """Echo server that counts executions of its deferred handler."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.executions = 0

    def serve_str(self, src, payload):
        return payload.upper()

    def serve_int(self, src, payload):
        self.executions += 1
        future = Future(self.sim)
        self.sim.schedule(20.0, future.resolve, payload * 2)
        return future


def test_trim_dedup_never_evicts_pending_entry():
    # Regression: eviction pressure while an idempotent op is still
    # in flight must not drop its entry — the retry already on the
    # wire would re-execute and double-apply.
    sim = Simulator(seed=1)
    net = Network(sim, latency=FixedLatency(1.0))
    server = CountingServer(sim, net, "server")
    server.dedup_capacity = 2
    client = ClientNode(sim, net, "client")

    slow = client.request("server", 7, idempotency_key="slow", timeout=100.0)
    sim.run(5.0)                 # handler running, future still pending
    for i, key in enumerate(("f1", "f2", "f3")):
        client.request("server", f"v{i}", idempotency_key=key, timeout=100.0)
    sim.run(15.0)                # trim ran twice under capacity pressure

    retry = client.request("server", 7, idempotency_key="slow", timeout=100.0)
    sim.run()
    assert slow.value == 14 and retry.value == 14
    assert server.executions == 1        # the retry attached, not re-ran


def test_trim_dedup_evicts_oldest_completed_first():
    sim = Simulator(seed=1)
    net = Network(sim, latency=FixedLatency(1.0))
    server = CountingServer(sim, net, "server")
    server.dedup_capacity = 2
    client = ClientNode(sim, net, "client")
    for i, key in enumerate(("f1", "f2", "f3")):
        client.request("server", f"v{i}", idempotency_key=key, timeout=100.0)
        sim.run()
    hits = sim.metrics.counter("rpc.dedup_hits")
    # f1 was evicted (oldest completion); f3 survived and replays.
    client.request("server", "changed", idempotency_key="f3", timeout=100.0)
    sim.run()
    assert hits.value == 1
    client.request("server", "changed", idempotency_key="f1", timeout=100.0)
    sim.run()
    assert hits.value == 1               # re-executed, no replay


def test_bounded_queue_sheds_with_retry_after():
    sim, _net, server, client = setup()
    server.service_time = 5.0
    server.queue_limit = 2
    futures = [client.request("server", f"m{i}", timeout=200.0)
               for i in range(5)]
    sim.run()
    ok = [f for f in futures if f.error is None]
    shed = [f for f in futures if isinstance(f.error, OverloadedError)]
    assert len(ok) == 2 and len(shed) == 3
    assert all(f.error.retry_after > 0 for f in shed)
    assert sim.metrics.counter("server.shed").value == 3
    assert sim.metrics.gauge("server.queue_depth").value == 0  # drained


def test_token_bucket_admission():
    sim, _net, server, client = setup()
    server.admission_rate = 100.0        # 0.1 tokens/ms
    server.admission_burst = 2.0
    futures = [client.request("server", f"m{i}", timeout=500.0)
               for i in range(4)]
    sim.run(10.0)
    rejected = [f for f in futures if isinstance(f.error, OverloadedError)]
    assert len(rejected) == 2            # burst admitted two
    assert all(f.error.retry_after > 0 for f in rejected)
    # The bucket refills: a later request is admitted again.
    late = client.request("server", "later", timeout=500.0)
    sim.run()
    assert late.value == "LATER"


def test_crash_resets_queue_depth_gauge():
    sim, _net, server, client = setup()
    server.service_time = 10.0
    for i in range(4):
        client.request("server", f"m{i}", timeout=50.0)
    sim.run(5.0)
    gauge = sim.metrics.gauge("server.queue_depth")
    assert gauge.value > 0
    server.crash()
    assert gauge.value == 0              # crash drops the backlog


def test_retry_layer_honors_retry_after_hint():
    sim, _net, server, client = setup()
    server.admission_rate = 100.0
    server.admission_burst = 1.0
    first = client.request("server", "one", timeout=100.0)  # drains the bucket
    policy = RetryPolicy(max_attempts=5, backoff_base=1.0, jitter=0.0,
                         request_timeout=100.0)
    second = client.call("server", "two", policy=policy)
    sim.run()
    assert first.value == "ONE"
    assert second.value == "TWO"         # retried after the hint, then admitted
    assert sim.metrics.counter("rpc.throttled").value >= 1


# ----------------------------------------------------------------------
# The protocol skeleton: RecordingClient / ReplicaGroup / Versioned*
# ----------------------------------------------------------------------

class Proto:
    """How to drive one single-group protocol through the skeleton."""

    def __init__(self, cluster_cls, replica_prefix, client_prefix,
                 size_kw="nodes", write="put", homed=False, elects=False):
        self.cluster_cls = cluster_cls
        self.replica_prefix = replica_prefix
        self.client_prefix = client_prefix
        self.size_kw = size_kw
        self.write = write
        self.homed = homed
        self.elects = elects

    def build(self, size=3, **kwargs):
        sim = Simulator(seed=5)
        net = Network(sim, latency=FixedLatency(1.0))
        cluster = self.cluster_cls(sim, net, **{self.size_kw: size}, **kwargs)
        if self.elects:
            cluster.elect()
            sim.run()
        return sim, net, cluster

    def connect(self, cluster, **kwargs):
        if self.homed:
            kwargs.setdefault("home", cluster.node_ids[0])
        return cluster.connect(**kwargs)

    def put(self, client, key, value, timeout=None):
        return getattr(client, self.write)(key, value, timeout=timeout)


PB = Proto(PrimaryBackupCluster, "pb", "client", size_kw="n")
CHAIN = Proto(ChainCluster, "ch", "chclient")
TIMELINE = Proto(TimelineCluster, "tl", "tlclient", write="write")
CAUSAL = Proto(CausalCluster, "cc", "ccclient", homed=True)
PAXOS = Proto(MultiPaxosCluster, "px", "pxclient", elects=True)

GROUPS = pytest.mark.parametrize(
    "proto", [PB, CHAIN, TIMELINE, CAUSAL, PAXOS],
    ids=["primary_backup", "chain", "timeline", "causal", "multipaxos"],
)
VERSIONED = pytest.mark.parametrize(
    "proto", [PB, CHAIN, TIMELINE],
    ids=["primary_backup", "chain", "timeline"],
)


@GROUPS
def test_group_default_ids_and_connect_naming(proto):
    _sim, _net, cluster = proto.build()
    ids = [f"{proto.replica_prefix}{i}" for i in range(3)]
    assert [r.node_id for r in cluster.replicas] == ids
    assert cluster.replica(ids[1]) is cluster.replicas[1]
    with pytest.raises(KeyError):
        cluster.replica("nobody")
    first, second = proto.connect(cluster), proto.connect(cluster)
    assert (first.node_id, first.session) == (
        f"{proto.client_prefix}-1", "session-1")
    assert (second.node_id, second.session) == (
        f"{proto.client_prefix}-2", "session-2")
    named = proto.connect(cluster, session="s", client_id="me")
    assert (named.node_id, named.session) == ("me", "s")


@GROUPS
def test_group_rejects_bad_sizes(proto):
    # Before the shared base only primary_backup checked the id count
    # and timeline / causal accepted an empty group.
    with pytest.raises(ValueError):
        proto.build(size=0)
    with pytest.raises(ValueError):
        proto.build(size=3, node_ids=["a", "b"])
    _sim, _net, cluster = proto.build(size=2, node_ids=["a", "b"])
    assert [r.node_id for r in cluster.replicas] == ["a", "b"]


@GROUPS
def test_group_records_completed_and_timed_out_ops(proto):
    sim, net, cluster = proto.build()
    client = proto.connect(cluster)
    done = proto.put(client, "k", "v1")
    sim.run()
    assert done.error is None
    # One {key: value} mapping per replica, in replica order.
    assert cluster.snapshots() == [{"k": "v1"}] * 3

    net.partition([client.node_id], cluster.node_ids)
    lost = proto.put(client, "k", "v2", timeout=20.0)
    sim.run()
    assert isinstance(lost.error, ReproTimeoutError)
    ok, failed = cluster.recorder.history()
    assert (ok.kind, ok.key, ok.session, ok.completed) == (
        "write", "k", client.session, True)
    assert ok.version == 1 and ok.value == "v1"
    # The timed-out op is kept, failed, against the replica it was
    # addressed to (the same one that served the first write).
    assert (failed.kind, failed.key, failed.session, failed.completed) == (
        "write", "k", client.session, False)
    assert failed.replica == ok.replica
    assert failed.replica in cluster.node_ids


@VERSIONED
def test_sweep_floods_highest_version_and_skips_crashed(proto):
    sim, net, cluster = proto.build()
    if proto is TIMELINE:
        cluster.set_master("k", cluster.node_ids[0])
    writer, follower, dead = cluster.replicas
    client = proto.connect(cluster)
    proto.put(client, "k", "v1")
    sim.run()
    dead.crash()
    net.partition([client.node_id, writer.node_id],
                  [follower.node_id, dead.node_id])
    # The replication message for v2 is dropped at the partition and
    # never re-sent (the chain's client times out waiting for its tail).
    proto.put(client, "k", "v2", timeout=20.0)
    sim.run()
    assert writer.data["k"] == ("v2", 2)
    assert follower.data["k"] == ("v1", 1)
    dead.install("ghost", "unseen", 9)

    net.heal()
    cluster.anti_entropy_sweep()
    assert writer.data == follower.data == {"k": ("v2", 2)}
    # A crashed replica neither receives nor contributes records.
    assert dead.data == {"k": ("v1", 1), "ghost": ("unseen", 9)}
    dead.recover()
    cluster.anti_entropy_sweep()
    assert writer.data == follower.data == dead.data
    assert cluster.snapshots() == [{"k": "v2", "ghost": "unseen"}] * 3


def versioned_replicas(count):
    sim = Simulator(seed=0)
    net = Network(sim)
    return [VersionedReplica(sim, net, f"r{i}", None) for i in range(count)]


def test_versioned_replica_reads_nothing_as_version_zero():
    (replica,) = versioned_replicas(1)
    assert replica.read("k") == (None, 0)
    assert replica.snapshot() == {}


def test_versioned_replica_keeps_the_highest_version():
    (replica,) = versioned_replicas(1)
    replica.install("k", "v2", 2)
    replica.install("k", "v1", 1)      # late arrival of an older version
    replica.install("k", "again", 2)   # a duplicate delivery
    assert replica.read("k") == ("v2", 2)
    assert replica.snapshot() == {"k": "v2"}


@given(st.lists(st.tuples(st.sampled_from("abc"), st.integers(1, 8)),
                max_size=24), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_versioned_replicas_agree_under_any_arrival_order(writes, rng):
    """One master per key makes versions total, so whatever order the
    versions arrive in, every replica ends at the per-key maximum."""
    a, b = versioned_replicas(2)
    shuffled = list(writes)
    rng.shuffle(shuffled)
    for replica, order in ((a, writes), (b, shuffled)):
        for key, version in order:
            replica.install(key, f"{key}@{version}", version)
    highest = {}
    for key, version in writes:
        highest[key] = max(highest.get(key, 0), version)
    assert a.data == b.data == {
        key: (f"{key}@{version}", version) for key, version in highest.items()}


# ----------------------------------------------------------------------
# Hash ring
# ----------------------------------------------------------------------

def test_stable_hash_deterministic():
    assert stable_hash("key") == stable_hash("key")
    assert stable_hash("key") != stable_hash("yek")


def test_preference_list_distinct_and_sized():
    ring = HashRing([f"n{i}" for i in range(6)], vnodes=8)
    for key in ("alpha", "beta", "gamma", 42):
        plist = ring.preference_list(key, 3)
        assert len(plist) == 3
        assert len(set(plist)) == 3


def test_preference_list_stable():
    ring = HashRing(["a", "b", "c", "d"], vnodes=8)
    assert ring.preference_list("k", 3) == ring.preference_list("k", 3)


def test_preference_list_caps_at_ring_size():
    ring = HashRing(["a", "b"], vnodes=4)
    assert len(ring.preference_list("k", 5)) == 2


def test_coordinator_is_first_preference():
    ring = HashRing(["a", "b", "c"], vnodes=4)
    assert ring.coordinator("k") == ring.preference_list("k", 3)[0]


def test_fallbacks_exclude_preference_nodes():
    ring = HashRing([f"n{i}" for i in range(6)], vnodes=8)
    prefs = set(ring.preference_list("k", 3))
    falls = ring.fallbacks("k", exclude=prefs)
    assert prefs.isdisjoint(falls)
    assert len(falls) == 3


def test_add_remove_node():
    ring = HashRing(["a", "b"], vnodes=4)
    ring.add_node("c")
    assert "c" in ring.nodes
    with pytest.raises(ValueError):
        ring.add_node("c")
    ring.remove_node("c")
    assert "c" not in ring.nodes
    with pytest.raises(ValueError):
        ring.remove_node("c")


def test_key_distribution_roughly_balanced():
    nodes = [f"n{i}" for i in range(4)]
    ring = HashRing(nodes, vnodes=64)
    counts = {node: 0 for node in nodes}
    for i in range(2000):
        counts[ring.coordinator(f"key-{i}")] += 1
    for node in nodes:
        assert 250 < counts[node] < 750  # within 2x of fair share (500)


def test_ring_requires_nodes_and_vnodes():
    with pytest.raises(ValueError):
        HashRing([])
    with pytest.raises(ValueError):
        HashRing(["a"], vnodes=0)


# ----------------------------------------------------------------------
# Op futures' labels
# ----------------------------------------------------------------------

def test_op_futures_name_their_op_in_repr_and_errors():
    """A label is formatted only when read, and reads as it did when every
    op formatted its own: an RPC request, a quorum op, the Dynamo client's
    outer future and a Multi-Paxos slot."""
    sim = Simulator(seed=1)
    net = Network(sim, latency=FixedLatency(1.0))
    dynamo = DynamoCluster(sim, net, nodes=3)
    paxos = MultiPaxosCluster(sim, net, nodes=3)
    paxos.elect()
    sim.run()
    client = dynamo.connect()
    _request_id, request = client._issue("dyn0", QGet("k"))
    qput = dynamo.node("dyn0").serve_QPut(client.node_id, QPut("k", "v"))
    outer = client.put("k", "w")
    slot = paxos.leader.serve_SubmitCmd(client.node_id, SubmitCmd(PutCmd("k", 1)))
    sim.run()
    for future, label in ((request, "req#1->dyn0"), (qput, "qput#1"),
                          (outer, "dwrite('k')"), (slot, "slot#0")):
        assert future.done and future.label == label
        assert repr(future).startswith(f"<Future {label!r} done(")
        with pytest.raises(SimulationError,
                           match=f"^future {re.escape(repr(label))} resolved twice$"):
            future.resolve(None)
