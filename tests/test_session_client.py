"""Tests for the client-side session-guarantee layer."""

import pytest

from repro.api import registry
from repro.checkers import check_monotonic_reads, check_read_your_writes
from repro.client import SessionClient, timeline_session
from repro.client.session import MAX_RETRIES
from repro.errors import TimeoutError as ReproTimeoutError
from repro.replication import TimelineCluster
from repro.sim import FixedLatency, Future, Network, Simulator, spawn
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


def drive_timeline(ops, guarantees, seed=0, propagation_delay=100.0,
                   **session_opts):
    """Run ``ops`` through a timeline store session enforcing
    ``guarantees`` from a non-master home; returns the driver's history
    and the session layer's stats."""
    sim = Simulator(seed=seed)
    net = Network(sim, latency=FixedLatency(3.0))
    store = registry.build("timeline", sim, net, nodes=3,
                           propagation_delay=propagation_delay)
    session = store.session("s", guarantees=guarantees,
                            home=non_master_home(store),
                            **session_opts)
    driver = WorkloadDriver(sim)
    driver.add_session(session, ops)
    return driver.run().history, session.session_client.stats


def test_unknown_guarantee_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        SessionClient(sim, lambda k, attempt: None, lambda k, v: None,
                      guarantees=["ryw", "linearizable"])


def test_ryw_enforced_by_retry():
    sim, _net, cluster = make_timeline()
    raw = cluster.connect(home=non_master_home(cluster))
    session = timeline_session(raw, guarantees=("ryw",), retry_delay=15.0)
    out = {}

    def script():
        yield session.write("k", "mine")
        value, version = yield session.read("k")
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
    raw = cluster.connect()
    session = timeline_session(raw, guarantees=("mr",))
    out = {}

    def script():
        yield session.write("k", "v1")
        yield session.read("k")
        out["floor"] = session.state.read_floor.get("k")

    spawn(sim, script())
    sim.run()
    assert out["floor"] == 1


def test_read_gives_up_after_max_retries():
    sim, net, cluster = make_timeline(propagation_delay=10_000.0)
    raw = cluster.connect(home=non_master_home(cluster))
    session = timeline_session(raw, guarantees=("ryw",), retry_delay=5.0)
    out = {}

    def script():
        yield session.write("k", "v")
        try:
            yield session.read("k")
            out["r"] = "ok"
        except ReproTimeoutError:
            out["r"] = "gave-up"

    spawn(sim, script())
    sim.run()
    assert out["r"] == "gave-up"
    assert session.stats.reads_rejected_stale == MAX_RETRIES


def test_read_timeout_bounds_its_stale_retries():
    sim, _net, cluster = make_timeline(propagation_delay=10_000.0)
    raw = cluster.connect(home=non_master_home(cluster))
    session = timeline_session(raw, guarantees=("ryw",), retry_delay=5.0)
    out = {}

    def script():
        yield session.write("k", "v")
        start = sim.now
        try:
            yield session.read("k", timeout=40.0)
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

    def failing_write(key, value, timeout=None):
        future = Future(sim)
        future.fail(ReproTimeoutError("store down"))
        return future

    def read_fn(key, attempt, timeout=None):
        future = Future(sim)
        future.resolve((None, 0))
        return future

    session = SessionClient(sim, read_fn, failing_write)
    result = session.write("k", 1)
    sim.run()
    assert isinstance(result.error, ReproTimeoutError)


def test_stats_count_operations():
    sim, _net, cluster = make_timeline(propagation_delay=0.0)
    raw = cluster.connect()
    session = timeline_session(raw)

    def script():
        yield session.write("a", 1)
        yield session.read("a")
        yield session.read("a")

    spawn(sim, script())
    sim.run()
    assert session.stats.writes == 1
    assert session.stats.reads == 2
