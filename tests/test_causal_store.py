"""Integration tests for the COPS-style causal store."""

import pytest

from repro.api import registry
from repro.checkers import (
    check_all_session_guarantees,
    check_causal,
    check_convergence,
    check_linearizability,
)
from repro.replication import CausalCluster
from repro.sim import ExponentialLatency, FixedLatency, Network, Simulator, spawn
from repro.workload import OpSpec, WorkloadDriver


def make_cluster(seed=0, latency=None, nodes=3):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=latency or FixedLatency(10.0))
    cluster = CausalCluster(sim, net, nodes=nodes)
    return sim, net, cluster


def test_local_write_read_roundtrip():
    sim, _net, cluster = make_cluster()
    client = cluster.connect(home="cc0")
    out = {}

    def script():
        yield client.put("k", "v")
        out["read"] = yield client.get("k")

    spawn(sim, script())
    sim.run()
    value, rank = out["read"]
    assert value == "v" and rank is not None


def test_writes_propagate_and_converge():
    sim, _net, cluster = make_cluster(seed=1)
    a = cluster.connect(home="cc0")
    b = cluster.connect(home="cc1")

    def script(client, tag):
        for i in range(5):
            yield client.put(f"{tag}-{i}", i)
            yield 7.0

    spawn(sim, script(a, "a"))
    spawn(sim, script(b, "b"))
    sim.run()
    sim.run(until=sim.now + 500.0)
    assert cluster.pending_total() == 0
    assert check_convergence(cluster.snapshots()).ok
    assert len(cluster.replicas[2].snapshot()) == 10


def test_concurrent_writes_arbitrated_identically():
    sim, _net, cluster = make_cluster(seed=2)
    a = cluster.connect(home="cc0")
    b = cluster.connect(home="cc1")

    def script(client, value):
        yield client.put("shared", value)

    spawn(sim, script(a, "from-a"))
    spawn(sim, script(b, "from-b"))
    sim.run()
    sim.run(until=sim.now + 300.0)
    snapshots = cluster.snapshots()
    assert all(s == snapshots[0] for s in snapshots)
    assert snapshots[0]["shared"] in ("from-a", "from-b")


def test_causal_dependency_never_reordered():
    # cc0 writes X, then (after seeing X) writes Y at cc1's behest...
    # Classic: Alice posts (X), Bob reads it at cc0 and replies (Y at
    # cc0 too? no—) Bob is homed at cc1: he can only reply after X
    # reaches cc1.  Then no replica ever shows Y without X.
    sim, _net, cluster = make_cluster(
        seed=3, latency=ExponentialLatency(base=2.0, mean=20.0),
    )
    alice = cluster.connect(home="cc0", session="alice")
    bob = cluster.connect(home="cc1", session="bob")
    observations = []

    def alice_script():
        yield alice.put("post", "hello world")

    def bob_script():
        # Poll until the post is visible at cc1, then reply.
        while True:
            value, _rank = yield bob.get("post")
            if value is not None:
                break
            yield 5.0
        yield bob.put("reply", "hi alice!")

    def observer_script():
        # Watch cc2: if the reply is visible, the post must be too.
        for _ in range(60):
            reply, _ = yield carol.get("reply")
            post, _ = yield carol.get("post")
            observations.append((post, reply))
            yield 3.0

    carol = cluster.connect(home="cc2", session="carol")
    spawn(sim, alice_script())
    spawn(sim, bob_script())
    spawn(sim, observer_script())
    sim.run()
    assert any(reply is not None for _post, reply in observations)
    for post, reply in observations:
        if reply is not None:
            assert post is not None, "reply visible before its cause!"


def test_history_is_causal_but_not_linearizable():
    # Clients are colocated with their home replica (1ms) while the
    # replicas are 40ms apart — local ops are fast, propagation lags.
    from repro.sim import MatrixLatency

    sim = Simulator(seed=4)
    site_of = {"cc0": "s0", "cc1": "s1", "cc2": "s2",
               "ccclient-1": "s0", "ccclient-2": "s1"}
    latency = MatrixLatency(
        {(a, b): (0.5 if a == b else 40.0)
         for a in ("s0", "s1", "s2") for b in ("s0", "s1", "s2")},
        site_of=lambda n: site_of[n], jitter=0.0,
    )
    net = Network(sim, latency=latency)
    store = registry.build("causal", sim, net, nodes=3)
    driver = WorkloadDriver(sim)
    driver.add_session(store.session("writer", home="cc0"),
                       [OpSpec("update", "k", i) for i in range(8)],
                       think_time=10.0)
    driver.add_session(store.session("reader", home="cc1"),
                       [OpSpec("sleep", "", 5.0)] + [OpSpec("read", "k")] * 10,
                       think_time=10.0)
    history = driver.run().history
    assert check_causal(history).ok
    assert not check_linearizability(history).ok  # stale remote reads


def test_session_guarantees_hold_for_pinned_clients():
    sim = Simulator(seed=5)
    store = registry.build("causal", sim,
                           Network(sim, latency=FixedLatency(10.0)), nodes=3)
    driver = WorkloadDriver(sim)
    for index in range(3):
        own, next_ = f"key-{index}", f"key-{(index + 1) % 3}"
        driver.add_session(
            store.session(f"s{index}", home=f"cc{index}"),
            [spec
             for i in range(6)
             for spec in (OpSpec("update", own, i), OpSpec("read", own),
                          OpSpec("read", next_), OpSpec("sleep", "", 8.0))],
        )
    history = driver.run().history
    for name, verdict in check_all_session_guarantees(history).items():
        assert verdict.ok, f"{name}: {verdict.violations[:2]}"
    assert check_causal(history).ok


def test_duplicated_messages_tolerated():
    sim = Simulator(seed=6)
    net = Network(sim, latency=FixedLatency(5.0), duplicate_rate=0.4)
    cluster = CausalCluster(sim, net, nodes=3)
    client = cluster.connect(home="cc0")

    def script():
        for i in range(10):
            yield client.put("k", i)
            yield 6.0

    spawn(sim, script())
    sim.run()
    sim.run(until=sim.now + 300.0)
    assert check_convergence(cluster.snapshots()).ok
    assert cluster.replicas[1].snapshot()["k"] == 9


def test_read_of_missing_key():
    sim, _net, cluster = make_cluster()
    client = cluster.connect(home="cc0")
    out = {}

    def script():
        out["read"] = yield client.get("ghost")

    spawn(sim, script())
    sim.run()
    assert out["read"] == (None, None)


# ----------------------------------------------------------------------
# Seed sweeps through the store API (the benchmark's construction)
# ----------------------------------------------------------------------

def ycsb_history(seed, clients, records, ops=500, protocol="causal", **opts):
    from repro.api import registry
    from repro.workload import YCSBWorkload, run_workload

    sim = Simulator(seed=seed)
    net = Network(sim, latency=ExponentialLatency(base=0.3, mean=1.0))
    store = registry.build(protocol, sim, net, nodes=5, **opts)
    oplist = YCSBWorkload("A", records=records, seed=seed + 1).take(ops)
    return run_workload(store, oplist, clients=clients, timeout=60_000.0).history


def test_causal_holds_over_forty_seeds_at_the_benchmark_shape():
    # bench/'s `causal_checked`: 4 clients x 500 keys x 500 ops.
    failures = {
        seed: [str(v) for v in verdict.violations]
        for seed in range(40)
        if not (verdict := check_causal(ycsb_history(seed, 4, 500))).ok
    }
    assert not failures


@pytest.mark.xfail(strict=True, reason=(
    "open finding, 2 of seeds 0-149 at 16 clients x 100 keys; triage "
    "(store vs version ranking) pending.  Replay: Simulator(seed=s); "
    "Network(sim, latency=ExponentialLatency(base=0.3, mean=1.0)); "
    "registry.build('causal', sim, net, nodes=5); "
    "YCSBWorkload('A', records=100, seed=s+1).take(500); "
    "run_workload(store, ops, clients=16, timeout=60_000.0).  "
    "Seed 29: read 'user1'=v7 superseded by causally preceding write v8; "
    "seed 75: read 'user2'=v8 superseded by causally preceding write v9."
))
@pytest.mark.parametrize("seed", [29, 75])
def test_causal_holds_at_sixteen_clients_on_a_hundred_keys(seed):
    verdict = check_causal(ycsb_history(seed, clients=16, records=100))
    assert verdict.ok, [str(v) for v in verdict.violations]
