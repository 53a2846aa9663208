"""Tests for the client-side session-guarantee layer."""

import pytest

from repro.api import registry
from repro.api.store import StoreSession
from repro.checkers import check_monotonic_reads, check_read_your_writes
from repro.client import SessionClient, SessionState
from repro.clocks import LamportStamp
from repro.client.session import MAX_RETRIES
from repro.errors import TimeoutError as ReproTimeoutError
from repro.replication import TimelineCluster
from repro.sim import (
    ExponentialLatency,
    FixedLatency,
    Future,
    Network,
    Simulator,
    spawn,
)
from repro.workload import OpSpec, WorkloadDriver


def make_timeline(seed=0, propagation_delay=100.0, latency=3.0):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=FixedLatency(latency))
    cluster = TimelineCluster(sim, net, nodes=3,
                              propagation_delay=propagation_delay)
    return sim, net, cluster


def non_master_home(cluster, key="k"):
    master = cluster.master_of(key)
    return next(n for n in cluster.node_ids if n != master)


def guarded(sim, cluster, guarantees=("ryw", "mr"), retry_delay=10.0,
            **session_opts):
    """A timeline session wrapped in a session-guarantee layer."""
    return SessionClient(sim, cluster.session(**session_opts), guarantees,
                         retry_delay=retry_delay)


class StubSession(StoreSession):
    """A store session whose reads see nothing; its writes resolve
    ``written``, or fail when that is None."""

    name = "stub"

    def __init__(self, sim, written=None):
        self.sim = sim
        self.written = written

    def put(self, key, value, timeout=None):
        future = Future(self.sim)
        if self.written is None:
            future.fail(ReproTimeoutError("store down"))
        else:
            future.resolve(self.written)
        return future

    def get(self, key, mode=None, timeout=None):
        future = Future(self.sim)
        future.resolve((None, None))
        return future


def drive_timeline(ops, guarantees, seed=0, propagation_delay=100.0,
                   retry_delay=10.0):
    """Run ``ops`` through a timeline store session enforcing
    ``guarantees`` from a non-master home; returns the driver's history
    and the session layer's stats."""
    sim = Simulator(seed=seed)
    net = Network(sim, latency=FixedLatency(3.0))
    store = registry.build("timeline", sim, net, nodes=3,
                           propagation_delay=propagation_delay)
    session = guarded(sim, store, guarantees, retry_delay, name="s",
                      home=non_master_home(store))
    driver = WorkloadDriver(sim)
    driver.add_session(session, ops)
    return driver.run().history, session.stats


def test_unknown_guarantee_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        SessionClient(sim, StubSession(sim), ["ryw", "linearizable"])


@pytest.mark.parametrize("guarantee", ["mw", "wfr"])
def test_store_side_guarantee_rejected(guarantee):
    """A client-side floor cannot order the store's writes: asking the
    wrapper for monotonic writes or writes-follow-reads is an error,
    not a silent no-op."""
    sim = Simulator()
    with pytest.raises(ValueError):
        SessionClient(sim, StubSession(sim), ["ryw", guarantee])


def test_wrapper_forwards_the_session_identity():
    sim, _net, cluster = make_timeline()
    inner = cluster.session("alice", home="tl1")
    session = SessionClient(sim, inner, ("ryw",))
    assert (session.name, session.client_id, session.read_preference,
            session.region) == (inner.name, inner.client_id,
                                inner.read_preference, inner.region)


def test_ryw_enforced_by_retry():
    sim, _net, cluster = make_timeline()
    session = guarded(sim, cluster, ("ryw",), retry_delay=15.0,
                      home=non_master_home(cluster))
    out = {}

    def script():
        yield session.put("k", "mine")
        value, version = yield session.get("k")
        out["read"] = (value, version)

    spawn(sim, script())
    sim.run()
    assert out["read"] == ("mine", 1)
    assert session.stats.read_retries > 0      # it had to wait out the lag
    assert session.stats.reads_rejected_stale > 0


def test_without_guarantees_stale_read_accepted():
    history, stats = drive_timeline(
        [OpSpec("update", "k", "mine"), OpSpec("read", "k")], guarantees=(),
    )
    (read,) = history.reads()
    assert (read.value, read.version) == (None, 0)  # stale accepted
    assert stats.read_retries == 0
    assert not check_read_your_writes(history).ok


def test_session_history_passes_checkers_with_guarantees():
    ops = [
        spec
        for i in range(5)
        for spec in (OpSpec("update", "k", i), OpSpec("read", "k"),
                     OpSpec("sleep", "", 20.0))
    ]

    def run(guarantees):
        return drive_timeline(ops, guarantees, seed=2,
                              propagation_delay=60.0, retry_delay=10.0)

    # The driver records what the application saw — accepted replies
    # only — and that history is clean...
    history, stats = run(("ryw", "mr"))
    assert check_read_your_writes(history).ok
    assert check_monotonic_reads(history).ok
    # ...because the floors refused stale replies: the same ops with no
    # guarantees break read-your-writes.  The enforcement is real
    # work, not luck.
    assert stats.reads_rejected_stale > 0
    unguarded, _stats = run(())
    assert not check_read_your_writes(unguarded).ok


def test_monotonic_reads_floor_advances():
    sim, _net, cluster = make_timeline(propagation_delay=0.0)
    session = guarded(sim, cluster, ("mr",))
    out = {}

    def script():
        yield session.put("k", "v1")
        yield session.get("k")
        out["floor"] = session.token.read_floor.get("k")

    spawn(sim, script())
    sim.run()
    assert out["floor"] == 1


def test_read_gives_up_after_max_retries():
    sim, net, cluster = make_timeline(propagation_delay=10_000.0)
    session = guarded(sim, cluster, ("ryw",), retry_delay=5.0,
                      home=non_master_home(cluster))
    out = {}

    def script():
        yield session.put("k", "v")
        try:
            yield session.get("k")
            out["r"] = "ok"
        except ReproTimeoutError:
            out["r"] = "gave-up"

    spawn(sim, script())
    sim.run()
    assert out["r"] == "gave-up"
    assert session.stats.reads_rejected_stale == MAX_RETRIES


def test_read_timeout_bounds_its_stale_retries():
    sim, _net, cluster = make_timeline(propagation_delay=10_000.0)
    session = guarded(sim, cluster, ("ryw",), retry_delay=5.0,
                      home=non_master_home(cluster))
    out = {}

    def script():
        yield session.put("k", "v")
        start = sim.now
        try:
            yield session.get("k", timeout=40.0)
        except ReproTimeoutError:
            out["elapsed"] = sim.now - start

    spawn(sim, script())
    sim.run()
    # Each stale reply costs a round trip and a 5 ms pause: the read
    # gives up inside its 40 ms, well before MAX_RETRIES replies.
    assert 0 < out["elapsed"] <= 40.0
    assert 1 < session.stats.reads_rejected_stale < MAX_RETRIES


def test_write_failure_propagates():
    sim = Simulator()
    session = SessionClient(sim, StubSession(sim), ("ryw", "mr"))
    result = session.put("k", 1)
    sim.run()
    assert isinstance(result.error, ReproTimeoutError)


def test_stats_count_operations():
    sim, _net, cluster = make_timeline(propagation_delay=0.0)
    session = guarded(sim, cluster)

    def script():
        yield session.put("a", 1)
        yield session.get("a")
        yield session.get("a")

    spawn(sim, script())
    sim.run()
    assert session.stats.writes == 1
    assert session.stats.reads == 2


def test_session_state_floors():
    token = SessionState()
    assert token.required("k", ("ryw", "mr")) is None
    token.note_write("k", None)            # "nothing" raises no floor
    token.note_read("k", None)
    assert token.required("k", ("ryw", "mr")) is None
    token.note_write("k", LamportStamp(2, "n1"))
    token.note_write("k", LamportStamp(1, "n9"))
    token.note_read("k", LamportStamp(2, "n2"))
    token.note_read("k", None)
    assert token.required("k", ("ryw",)) == LamportStamp(2, "n1")
    assert token.required("k", ("mr",)) == LamportStamp(2, "n2")
    assert token.required("k", ("ryw", "mr")) == LamportStamp(2, "n2")
    assert token.required("k", ()) is None
    assert token.required("other", ("ryw", "mr")) is None


def test_nothing_read_is_below_any_floor():
    """A reply carrying no version (``None``) never meets a floor."""
    sim = Simulator()
    session = SessionClient(sim, StubSession(sim, written=1), ("ryw",),
                            retry_delay=1.0)
    fresh = session.get("k")                # no floor yet: accepted
    session.put("k", "v")
    sim.run()
    stale = session.get("k")
    sim.run()
    assert fresh.value == (None, None)
    assert isinstance(stale.error, ReproTimeoutError)
    assert session.stats.reads_rejected_stale == MAX_RETRIES


#: Registry name -> build options of a store whose plain sessions can
#: miss their own writes.
LAGGING_STORES = {
    "timeline": dict(nodes=3, propagation_delay=20.0),
    "quorum": dict(nodes=4, n=3, r=1, w=1, coordinator_policy="random"),
}


@pytest.mark.parametrize("name", sorted(LAGGING_STORES))
def test_wrapper_removes_ryw_violations_on_any_store(name):
    """The same wrapper over a single-master store (int tokens) and a
    leaderless one (Lamport stamps): on the same seeds, the bare
    session reads stale values after its own writes and the wrapped
    one never does."""
    ops = [spec for i in range(20)
           for spec in (OpSpec("update", f"k{i % 4}", i),
                        OpSpec("read", f"k{i % 4}"))]

    def violations(seed, guarantees):
        sim = Simulator(seed=seed)
        net = Network(sim, latency=ExponentialLatency(base=1.0, mean=3.0))
        store = registry.build(name, sim, net, **LAGGING_STORES[name])
        session = store.session("s")
        if guarantees:
            session = SessionClient(sim, session, guarantees)
        driver = WorkloadDriver(sim)
        driver.add_session(session, ops)
        return check_read_your_writes(driver.run().history).violation_count

    assert sum(violations(seed, ()) for seed in range(5)) > 0
    assert sum(violations(seed, ("ryw", "mr")) for seed in range(5)) == 0
