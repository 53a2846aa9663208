"""Conformance suite for the protocol-agnostic store API.

Every adapter registered in :mod:`repro.api.registry` must honor the
same contract: sessions round-trip ``put``/``get``, failures surface
as :class:`~repro.errors.ReproError` on the future, partitions produce
timeouts, server-side errors propagate through the reply channel, and a crash of one non-critical replica is survivable
exactly when the adapter's capabilities say so.
"""

import pytest

from repro import Network, RetryPolicy, Simulator, spawn
from repro.api import ConsistentStore, registry
from repro.client import SessionClient
from repro.errors import OverloadedError, ReproError
from repro.errors import TimeoutError as ReproTimeoutError
from repro.histories import TokenHistoryRecorder
from repro.sharding import ShardedStore
from repro.sim import FixedLatency
from repro.workload import YCSBWorkload, run_workload

#: Adapter-specific knobs so the same conformance script runs
#: everywhere: session options, a settle pause before reading, and a
#: read mode guaranteed to see an acknowledged write.
TUNING = {
    "quorum": dict(),
    "quorum_siblings": dict(),
    "causal": dict(),
    "timeline": dict(read_mode="latest"),
    "bayou": dict(read_token=False),
    "primary_backup": dict(),
    "chain": dict(),
    "multipaxos": dict(),
    "pileus": dict(pause=500.0),
    # Default build: a write-through cache over a 3-node quorum store.
    "cached": dict(),
}

ALL_PROTOCOLS = registry.names()


def build_store(name, sim, **extra):
    net = Network(sim, latency=FixedLatency(2.0))
    build_kwargs = dict(TUNING[name].get("build", {}))
    build_kwargs.update(extra)
    return registry.build(name, sim, net, nodes=3, **build_kwargs)


def run(sim, gen):
    """Spawn, run to quiescence, and re-raise any script error."""
    process = spawn(sim, gen)
    sim.run()
    if process.error is not None:
        raise process.error
    return process.result


def normalize(store, value):
    if store.capabilities.multi_value_reads:
        assert isinstance(value, tuple)
        assert len(value) == 1
        return value[0]
    return value


def test_registry_is_complete():
    assert len(ALL_PROTOCOLS) >= 9
    for name in ALL_PROTOCOLS:
        spec = registry.get(name)
        assert spec.name == name
        assert spec.capabilities.read_modes
        assert spec.capabilities.description
    with pytest.raises(KeyError):
        registry.get("no-such-protocol")


def test_capacity_knobs_queue_and_shed_bayou_requests():
    """Bayou's replicas serve through the same service queue as every
    other store's: with one slot per replica, a second request arriving
    together with the first is shed, and the admitted one waits out its
    service time."""
    sim = Simulator(seed=1)
    store = build_store("bayou", sim, service_time=5.0, queue_limit=1)
    # Sessions take the replicas round-robin: two sessions per replica.
    sessions = [store.session(f"s{i}") for i in range(6)]
    futures = [session.put("k", i) for i, session in enumerate(sessions)]
    sim.run()
    shed = [f for f in futures if isinstance(f.error, OverloadedError)]
    assert len(shed) == 3 and sim.metrics.counter("server.shed").value == 3
    assert sum(f.error is None for f in futures) == 3
    assert sim.metrics.gauge("server.queue_depth_peak").value == 3
    # Client -> replica (2 ms), service (5 ms), reply (2 ms).
    assert sim.now >= 9.0


@pytest.mark.parametrize("name", ALL_PROTOCOLS)
def test_round_trip(name):
    """put then get returns the written value with an ordered token."""
    sim = Simulator(seed=11)
    store = build_store(name, sim)
    assert isinstance(store, ConsistentStore)
    session = store.session("conformance", **TUNING[name].get("session", {}))
    mode = TUNING[name].get("read_mode")
    pause = TUNING[name].get("pause", 100.0)
    seen = {}

    def script():
        token1 = yield session.put("ck", "v1")
        yield pause
        token2 = yield session.put("ck", "v2")
        yield pause
        value, token = yield session.get("ck", mode=mode)
        seen.update(t1=token1, t2=token2, value=value, token=token)

    run(sim, script())
    assert normalize(store, seen["value"]) == "v2"
    # Version tokens are totally ordered within the key.
    assert seen["t2"] > seen["t1"]
    if TUNING[name].get("read_token", True):
        assert seen["token"] is not None


@pytest.mark.parametrize("name", ALL_PROTOCOLS)
def test_default_read_mode_and_unknown_mode(name):
    sim = Simulator(seed=3)
    store = build_store(name, sim)
    session = store.session(**TUNING[name].get("session", {}))
    caps = store.capabilities
    assert caps.default_read_mode == caps.read_modes[0]
    with pytest.raises(ValueError):
        session.get("k", mode="definitely-not-a-mode")


@pytest.mark.parametrize("name", ALL_PROTOCOLS)
def test_every_op_returns_a_future(name):
    """A store's failure is never raised at issue: with every server
    crashed, ``put`` and ``get`` return futures that fail; with none
    crashed, both succeed.  A caller's error (an unknown read mode)
    still raises."""
    for crashed in (False, True):
        sim = Simulator(seed=29)
        store = build_store(name, sim)
        session = store.session("contract",
                                **TUNING[name].get("session", {}))
        if crashed:
            for node_id in store.server_ids():
                store.crash(node_id)
        put = session.put("ck", "v", timeout=50.0)
        get = session.get("ck", timeout=50.0)
        sim.run()
        assert put.done and get.done
        if crashed:
            assert isinstance(put.error, ReproError), put.error
            assert isinstance(get.error, ReproError), get.error
        else:
            assert put.error is None and get.error is None, (put, get)
        with pytest.raises(ValueError):
            session.get("ck", mode="definitely-not-a-mode")


#: Every store's put, plus a session-guarantee timeline session's put
#: and get: its session layer must hand the op's timeout down.
PARTITION_CASES = [
    pytest.param(name, (), "put", id=name) for name in ALL_PROTOCOLS
] + [
    pytest.param("timeline", ("ryw", "mr"), op,
                 id=f"timeline-guarantees-{op}")
    for op in ("put", "get")
]


@pytest.mark.parametrize("name, guarantees, op", PARTITION_CASES)
def test_partition_times_out(name, guarantees, op):
    """A client cut off from every server observes a clean timeout,
    through the session-guarantee wrapper too."""
    sim = Simulator(seed=7)
    store = build_store(name, sim)
    session = store.session("lonely", **TUNING[name].get("session", {}))
    if guarantees:
        session = SessionClient(sim, session, guarantees)
    store.network.partition([session.client_id])
    outcome = {}

    def script():
        try:
            if op == "put":
                yield session.put("pk", "pv", timeout=100.0)
            else:
                yield session.get("pk", timeout=100.0)
        except ReproTimeoutError as exc:
            outcome["error"] = exc

    run(sim, script())
    assert isinstance(outcome.get("error"), ReproTimeoutError)


def test_server_error_propagates():
    """Errors raised server-side (not timeouts) cross the reply channel
    and fail the client future with the rebuilt exception type."""
    sim = Simulator(seed=5)
    store = build_store("quorum", sim, n=3, r=2, w=2,
                        sloppy=False, op_deadline=150.0,
                        client_timeout=10_000.0, hint_interval=None)
    session = store.session("err", coordinator=store.server_ids()[0])
    for node_id in store.server_ids()[1:]:
        store.crash(node_id)
    outcome = {}

    def script():
        try:
            yield session.put("k", "v")
        except ReproError as exc:
            outcome["error"] = exc

    run(sim, script())
    # The coordinator answered (no client-side timeout) with the
    # protocol's quorum-failure error.
    error = outcome["error"]
    assert isinstance(error, ReproError)
    assert not isinstance(error, ReproTimeoutError)


@pytest.mark.parametrize("name", ALL_PROTOCOLS)
def test_non_coordinator_replica_crash(name):
    """Crash a replica the session does not talk to directly: stores
    with ``survives_replica_crash`` keep serving; fragile ones
    (chain replication without reconfiguration) stop."""
    sim = Simulator(seed=13)
    store = build_store(name, sim)
    caps = store.capabilities
    session_opts = dict(TUNING[name].get("session", {}))
    servers = store.server_ids()
    # Pin the session to the first server where the adapter allows it,
    # then crash the last server (never the pinned/primary one).
    if name in ("quorum", "quorum_siblings", "cached"):
        session_opts["coordinator"] = servers[0]
    if name in ("causal", "timeline"):
        session_opts["home"] = servers[0]
    if name == "pileus":
        session_opts.update(home=servers[0], target=servers[0])
    session = store.session("survivor", **session_opts)
    mode = TUNING[name].get("read_mode")
    victim = servers[-1]
    if name == "multipaxos":
        leader = store.leader.node_id
        victim = [n for n in servers if n != leader][-1]
    if name in ("timeline", "pileus"):
        store.set_master("ck", servers[0])
    store.crash(victim)
    seen = {}

    def script():
        try:
            yield session.put("ck", "after-crash", timeout=1_000.0)
            yield 100.0
            value, _token = yield session.get("ck", mode=mode,
                                              timeout=1_000.0)
            seen["value"] = value
        except ReproError as exc:
            seen["error"] = exc

    run(sim, script())
    if caps.survives_replica_crash:
        assert "error" not in seen, seen
        assert normalize(store, seen["value"]) == "after-crash"
    else:
        assert isinstance(seen.get("error"), ReproError)


#: Who to crash in the failover test: the session's preferred endpoint
#: for both reads and writes.  ``0`` = the pinned first server, ``-1``
#: = the chain tail, ``"leader"`` = the elected paxos leader.
FAILOVER_VICTIM = {
    "quorum": 0,
    "quorum_siblings": 0,
    "causal": 0,
    "timeline": 0,
    "bayou": 0,               # the first session's replica
    "primary_backup": 0,      # primary: reads fail over, writes cannot
    "chain": -1,              # tail: fixed read/ack role, no failover
    "multipaxos": "leader",
    "pileus": 0,
    "cached": 0,              # the inner quorum session's coordinator
}


def _pin_session(name, store, servers):
    """Session options binding the session to ``servers[0]`` wherever
    the adapter allows, plus per-key mastership where it applies."""
    opts = dict(TUNING[name].get("session", {}))
    if name in ("quorum", "quorum_siblings", "cached"):
        opts["coordinator"] = servers[0]
    if name in ("causal", "timeline"):
        opts["home"] = servers[0]
    if name == "pileus":
        opts.update(home=servers[0], target=servers[0])
    if name in ("timeline", "pileus"):
        store.set_master("ck", servers[0])
    return opts


@pytest.mark.parametrize("name", ALL_PROTOCOLS)
def test_retry_failover_on_coordinator_crash(name):
    """Crash the session's preferred endpoint under a retry policy:
    ops must keep succeeding exactly where the capabilities claim
    failover, and fail cleanly where they do not."""
    sim = Simulator(seed=17)
    policy = RetryPolicy(max_attempts=3, request_timeout=40.0,
                         backoff_base=5.0, jitter=0.0)
    store = build_store(name, sim, retry=policy)
    caps = store.capabilities
    servers = store.server_ids()
    session = store.session("failover", **_pin_session(name, store, servers))
    # Timeline reads must not pin to the master for failover to apply.
    mode = "any" if name == "timeline" else TUNING[name].get("read_mode")
    victim = FAILOVER_VICTIM[name]
    victim = (store.leader.node_id if victim == "leader"
              else servers[victim])
    seen = {}

    def script():
        # Phase 1: a clean write while everything is up.
        yield session.put("ck", "v0", timeout=1_000.0)
        yield 100.0  # let replication fan out
        store.crash(victim)
        try:
            value, _token = yield session.get("ck", mode=mode, timeout=300.0)
            seen["read"] = value
        except ReproError as exc:
            seen["read_error"] = exc
        try:
            yield session.put("ck", "v1", timeout=300.0)
            seen["write"] = True
        except ReproError as exc:
            seen["write_error"] = exc

    run(sim, script())
    if caps.failover_reads:
        assert normalize(store, seen["read"]) == "v0", seen
    else:
        assert isinstance(seen.get("read_error"), ReproError), seen
    if caps.failover_writes:
        assert "write" in seen, seen
    else:
        assert isinstance(seen.get("write_error"), ReproError), seen
    failovers = sim.metrics.counter("rpc.failovers").value
    if caps.failover_reads or caps.failover_writes:
        assert failovers > 0
    else:
        assert failovers == 0


@pytest.mark.parametrize("name", ALL_PROTOCOLS)
def test_idempotent_retry_applies_once(name):
    """Lose the first reply (client partitioned after the request got
    through), let the retry hit the same server: the write must apply
    exactly once, the retry replaying the original result."""
    sim = Simulator(seed=23)
    # Retries rotate across the call's endpoints (one, or all three
    # replicas), so the fourth attempt is back at the server that
    # already applied the write — dedup is a per-server guarantee.
    policy = RetryPolicy(max_attempts=4, request_timeout=20.0,
                         backoff_base=15.0, jitter=0.0)
    store = build_store(name, sim, retry=policy)
    caps = store.capabilities
    if not caps.retry_safe_writes:
        pytest.skip("adapter declares writes unsafe to retry")
    servers = store.server_ids()
    session = store.session("once", **_pin_session(name, store, servers))
    mode = TUNING[name].get("read_mode")
    pause = TUNING[name].get("pause", 100.0)
    # The put's request is on the wire at t=0 and in-flight messages
    # survive a partition (drops are decided at send time), so cutting
    # the client off at t=1 loses only the reply — sent at t>=2.  The
    # retries at t=35 and t=85 are dropped; heal before the third
    # (t=165) reaches the first server's dedup table.
    sim.schedule(1.0, store.network.partition, [session.client_id])
    sim.schedule(150.0, store.network.heal)
    seen = {}

    def script():
        token = yield session.put("ck", "exactly-once", timeout=500.0)
        seen["put_token"] = token
        yield pause
        value, token = yield session.get("ck", mode=mode, timeout=500.0)
        seen.update(value=value, read_token=token)

    run(sim, script())
    assert normalize(store, seen["value"]) == "exactly-once"
    assert sim.metrics.counter("rpc.dedup_hits").value >= 1
    # A double-applied write would have minted a second version; the
    # replayed token must be the one the read observes.
    if TUNING[name].get("read_token", True):
        assert seen["read_token"] == seen["put_token"]


@pytest.mark.parametrize("name", ALL_PROTOCOLS + ["sharded"])
def test_history_or_driver_history(name, monkeypatch):
    """No store keeps a history of its own: the driver's is the only
    one, with exactly one record per op.  ``cached`` fronts a quorum
    store; ``sharded`` routes over two ``quorum_siblings`` shards."""
    sim = Simulator(seed=2)
    if name == "sharded":
        store = ShardedStore(sim, Network(sim, latency=FixedLatency(2.0)),
                             protocol="quorum_siblings", shards=2,
                             nodes_per_shard=3)
    else:
        store = build_store(name, sim)
    assert not hasattr(store, "history")
    begun = []
    begin = TokenHistoryRecorder.begin

    def counting_begin(self, *args, **kwargs):
        begun.append(args)
        return begin(self, *args, **kwargs)

    monkeypatch.setattr(TokenHistoryRecorder, "begin", counting_begin)
    ops = YCSBWorkload("A", records=8, seed=3).take(40)
    result = run_workload(store, ops, clients=3, timeout=2_000.0)
    assert result.ops_total == 40
    assert len(begun) == len(result.history) == 40
