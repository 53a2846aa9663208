"""Cross-cutting integration tests: determinism and fault injection.

These exercise whole protocol stacks under the failure modes the
network can inject — loss, duplication, partitions, crashes — and the
package's core reproducibility promise: same seed ⇒ same trace.
"""

import pytest

from repro.api import registry
from repro.checkers import check_convergence
from repro.replication import (
    CausalCluster,
    DynamoCluster,
    GossipCluster,
    MultiPaxosCluster,
)
from repro.sim import ExponentialLatency, FixedLatency, Network, Simulator, spawn
from repro.workload import OpSpec, run_workload


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------

def dynamo_trace(seed):
    sim = Simulator(seed=seed)
    net = Network(
        sim, latency=ExponentialLatency(base=0.5, mean=9.0),
        loss_rate=0.05, duplicate_rate=0.05,
    )
    store = registry.build("quorum", sim, net, nodes=5, n=3, r=2, w=2,
                           coordinator_policy="random")
    # Loss may fail some ops; the driver records them and goes on.
    ops = [
        spec
        for i in range(15)
        for spec in (OpSpec("update", f"key-{i % 4}", i),
                     OpSpec("read", f"key-{(i + 1) % 4}"),
                     OpSpec("sleep", "", 6.0))
    ]
    history = run_workload(store, ops).history
    return [
        (op.kind, op.key, op.version, round(op.start, 9),
         None if op.end is None else round(op.end, 9))
        for op in history
    ]


def test_same_seed_same_full_history():
    assert dynamo_trace(123) == dynamo_trace(123)


def test_different_seed_different_history():
    assert dynamo_trace(123) != dynamo_trace(124)


# ----------------------------------------------------------------------
# Message loss
# ----------------------------------------------------------------------

def test_gossip_converges_despite_heavy_loss():
    sim = Simulator(seed=7)
    net = Network(sim, latency=FixedLatency(2.0), loss_rate=0.3)
    cluster = GossipCluster(sim, net, nodes=6, interval=10.0, fanout=2)
    for index, replica in enumerate(cluster.replicas):
        replica.write(f"key-{index}", index)
    when = cluster.run_until_converged(deadline=60_000.0)
    assert when > 0
    assert check_convergence(cluster.snapshots()).ok


def test_quorum_write_succeeds_despite_loss_with_n_redundancy():
    # W=1 of N=3: a write needs only one surviving StoreMsg+ack pair.
    sim = Simulator(seed=8)
    net = Network(sim, latency=FixedLatency(3.0), loss_rate=0.2)
    cluster = DynamoCluster(sim, net, nodes=5, n=3, r=1, w=1)
    client = cluster.connect()
    successes = [0]

    def script():
        for i in range(20):
            try:
                yield client.put(f"k{i}", i)
                successes[0] += 1
            except Exception:  # noqa: BLE001
                pass
            yield 5.0

    spawn(sim, script())
    sim.run()
    # Loss also hits the client's request/reply hops (~0.8² ≈ 0.64
    # success before quorum redundancy even matters), so the bar is
    # well above chance-of-no-quorum but below perfection.
    assert successes[0] >= 10


# ----------------------------------------------------------------------
# Duplication
# ----------------------------------------------------------------------

def _paxos_under_duplication(seed):
    """Five writes and a read of one key through a 3-node Multi-Paxos
    group on a network that duplicates half its messages: the read, and
    every replica's final ``(value, version)``."""
    sim = Simulator(seed=seed)
    net = Network(sim, latency=FixedLatency(2.0), duplicate_rate=0.5)
    cluster = MultiPaxosCluster(sim, net, nodes=3)
    client = cluster.connect()
    out = {}

    def script():
        for i in range(5):
            yield client.put("k", i)
        out["read"] = yield client.get("k")

    spawn(sim, script())
    sim.run()
    sim.run(until=sim.now + 200.0)
    return out["read"], [replica.store["k"] for replica in cluster.replicas]


def test_paxos_tolerates_duplicated_messages():
    """Duplicates never reorder or lose a write, and every replica applies
    the same log: the last value wins everywhere."""
    for seed in range(20):
        (value, version), stores = _paxos_under_duplication(seed)
        assert value == 4 and version >= 5, seed
        assert stores == [(value, version)] * 3, seed


@pytest.mark.xfail(strict=True, reason=(
    "a SubmitCmd the network duplicated is proposed twice: "
    "ClientNode.call(..., idempotent=True) without a retry policy returns "
    "self.request(...) before it mints an idempotency key, so the leader "
    "has nothing to dedup on (5 to 10 versions; exactly 5 on seeds 62, 69 "
    "and 83 of 0-199 only). Replay: PYTHONPATH=src python -m pytest "
    "tests/test_integration_faults.py -k applies_each --runxfail"
))
def test_paxos_applies_each_duplicated_submit_once():
    for seed in range(20):
        (value, version), _stores = _paxos_under_duplication(seed)
        assert (value, version) == (4, 5), seed   # exactly 5 versions


def test_causal_store_tolerates_loss_free_duplication_mix():
    sim = Simulator(seed=10)
    net = Network(sim, latency=FixedLatency(4.0), duplicate_rate=0.3)
    cluster = CausalCluster(sim, net, nodes=3)
    a = cluster.connect(home="cc0")
    b = cluster.connect(home="cc1")

    def script(client, tag):
        for i in range(8):
            yield client.put(f"{tag}", i)
            yield 6.0

    spawn(sim, script(a, "x"))
    spawn(sim, script(b, "y"))
    sim.run()
    sim.run(until=sim.now + 300.0)
    assert check_convergence(cluster.snapshots()).ok
    snap = cluster.replicas[2].snapshot()
    assert snap == {"x": 7, "y": 7}


# ----------------------------------------------------------------------
# Crash + recovery
# ----------------------------------------------------------------------

def test_paxos_majority_survives_one_crash_mid_stream():
    sim = Simulator(seed=11)
    net = Network(sim, latency=FixedLatency(3.0))
    cluster = MultiPaxosCluster(sim, net, nodes=5)
    client = cluster.connect()
    committed = []

    def script():
        for i in range(10):
            if i == 4:
                cluster.replicas[3].crash()   # a follower dies
            version = yield client.put("k", i)
            committed.append(version)
            yield 4.0

    spawn(sim, script())
    sim.run()
    assert committed == list(range(1, 11))
    # The dead follower recovers and catches up via its durable log
    # once re-included (commits it already accepted apply on recovery
    # when the next commit arrives).
    cluster.replicas[3].recover()

    def extra():
        yield client.put("k", "final")

    spawn(sim, extra())
    sim.run()
    sim.run(until=sim.now + 200.0)
    assert cluster.replicas[3].store.get("k", (None, 0))[0] == "final"


def test_dynamo_node_crash_recovery_with_read_repair():
    sim = Simulator(seed=12)
    net = Network(sim, latency=FixedLatency(3.0))
    cluster = DynamoCluster(sim, net, nodes=5, n=3, r=3, w=2,
                            read_repair=True)
    client = cluster.connect()
    homes = cluster.ring.preference_list("k", 3)
    victim = cluster.replica(homes[1])
    out = {}

    def script():
        victim.crash()
        yield client.put("k", "written-while-down")
        victim.recover()
        yield 50.0
        # R=3 cannot assemble while one home is empty... it can: the
        # recovered node answers with None, the freshest wins, and
        # read repair heals it.
        out["read"] = yield client.get("k")
        yield 100.0

    spawn(sim, script())
    sim.run()
    value, _stamp = out["read"]
    assert value == "written-while-down"
    assert victim.local_read("k")[0] == "written-while-down"  # repaired


def test_gossip_replica_rejoins_after_crash():
    sim = Simulator(seed=13)
    net = Network(sim, latency=FixedLatency(2.0))
    cluster = GossipCluster(sim, net, nodes=5, interval=15.0, fanout=2)
    cluster.replicas[0].write("pre", "crash")
    sim.run(until=100.0)
    victim = cluster.replicas[4]
    victim.crash()
    cluster.replicas[1].write("during", "outage")
    sim.run(until=300.0)
    assert victim.read("during") is None
    victim.recover()
    when = cluster.run_until_converged()
    assert victim.read("during") == "outage"
