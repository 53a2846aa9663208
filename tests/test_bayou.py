"""Tests for Bayou-style tentative/committed replication."""

import pytest

from repro.errors import TimeoutError as ReproTimeoutError
from repro.replication import BayouCluster
from repro.sim import FixedLatency, Network, Simulator, spawn


def make_cluster(seed=0, nodes=4, latency=5.0):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=FixedLatency(latency))
    cluster = BayouCluster(sim, net, nodes=nodes)
    return sim, net, cluster


def test_write_visible_tentatively_immediately():
    sim, _net, cluster = make_cluster()
    replica = cluster.replicas[2]
    replica.write("k", "v")
    assert replica.read_tentative("k") == "v"
    # Not committed yet: the primary hasn't even heard of it.
    assert replica.read_committed("k") is None
    assert replica.tentative_count() == 1


def test_primary_commits_its_own_writes_instantly():
    sim, _net, cluster = make_cluster()
    primary = cluster.primary
    primary.write("k", "v")
    assert primary.read_committed("k") == "v"
    assert primary.tentative_count() == 0


def test_commit_propagates_via_anti_entropy():
    sim, _net, cluster = make_cluster(seed=1)
    replica = cluster.replicas[3]
    replica.write("k", "v")
    cluster.run_until_converged()
    for r in cluster.replicas:
        assert r.read_committed("k") == "v"
        assert r.tentative_count() == 0


def test_tentative_view_may_reorder_but_committed_never_does():
    sim, _net, cluster = make_cluster(seed=2, nodes=3)
    a, b = cluster.replicas[1], cluster.replicas[2]
    # Both write the same key concurrently; b's clock is behind so its
    # write carries a lower stamp despite happening "later" here.
    a.write("k", "from-a")
    a.write("other", "x")       # advance a's clock past b's
    b.write("k", "from-b")
    tentative_at_a_before = a.read_tentative("k")
    cluster.run_until_converged()
    # All replicas agree on both views.
    finals = {r.read_tentative("k") for r in cluster.replicas}
    committed = {r.read_committed("k") for r in cluster.replicas}
    assert len(finals) == 1 and finals == committed
    # a's tentative view was allowed to change when b's earlier-stamped
    # write arrived (rollback/replay) — or not, depending on stamps;
    # the invariant is agreement, which we asserted.
    assert tentative_at_a_before in ("from-a", "from-b")


def test_rollback_counted_when_earlier_write_arrives():
    sim, _net, cluster = make_cluster(seed=3, nodes=3)
    a, b = cluster.replicas[1], cluster.replicas[2]
    b.write("k", "early")       # stamp (1, b-node)
    a.write("other", "x")       # stamp (1, a-node)
    a.write("k", "late")        # stamp (2, a-node)
    # Deliver b's earlier write into a manually (the simulator never
    # runs, so no gossip round fires).
    a.handle_WriteSet("peer", b._write_set(reply_expected=False))
    assert sim.metrics.counter(f"bayou.{a.node_id}.rollbacks").value >= 1
    # Replay puts 'late' after 'early': the tentative value is 'late'.
    assert a.read_tentative("k") == "late"


def test_committed_prefix_only_grows():
    sim, _net, cluster = make_cluster(seed=4, nodes=4)
    prefixes = {r.node_id: [] for r in cluster.replicas}

    def snapshot_prefixes():
        for r in cluster.replicas:
            prefixes[r.node_id].append(r.committed_stamps())

    for round_index in range(6):
        writer = cluster.replicas[round_index % 4]
        writer.write(f"key-{round_index}", round_index)
        sim.run(until=sim.now + 60.0)
        snapshot_prefixes()
    for history in prefixes.values():
        for earlier, later in zip(history, history[1:]):
            assert later[:len(earlier)] == earlier  # prefix stability


def test_all_views_converge_under_many_writers():
    sim, _net, cluster = make_cluster(seed=5, nodes=5)
    for i in range(20):
        cluster.replicas[i % 5].write(f"key-{i % 3}", f"v{i}")
        sim.run(until=sim.now + 7.0)
    cluster.run_until_converged()
    snapshots = [r.snapshot() for r in cluster.replicas]
    assert all(s == snapshots[0] for s in snapshots)
    assert all(r.tentative_count() == 0 for r in cluster.replicas)


def test_primary_down_tentative_still_flows_commits_stall():
    sim, _net, cluster = make_cluster(seed=6, nodes=4)
    cluster.primary.crash()
    writer = cluster.replicas[2]
    writer.write("k", "v")
    sim.run(until=sim.now + 400.0)
    others = [r for r in cluster.replicas if not r.is_primary]
    # Tentative value spread everywhere alive...
    assert all(r.read_tentative("k") == "v" for r in others)
    # ...but nothing can commit without the primary.
    assert all(r.read_committed("k") is None for r in others)
    # Primary returns; commits flow again.
    cluster.primary.recover()
    cluster.primary.every(20.0, cluster.primary.anti_entropy_once, jitter=0.5)
    cluster.run_until_converged()
    assert all(r.read_committed("k") == "v" for r in cluster.replicas)


def test_cluster_validation():
    sim = Simulator()
    net = Network(sim)
    with pytest.raises(ValueError):
        BayouCluster(sim, net, nodes=0)


def test_sessions_reach_their_replica_over_the_wire():
    """A session is a client bound to one replica by RPC: a write takes
    a round trip, the tentative view shows it at once, the committed
    view only after the primary's commit comes back by anti-entropy,
    and a crashed replica times its session's ops out."""
    sim, _net, cluster = make_cluster(nodes=3)
    cluster.session("first")              # replicas go round-robin
    session = cluster.session("second")
    assert session.client.server == "by1" and session.name == "second"
    seen = {}

    def script():
        stamp = yield session.put("k", "v")
        seen["put_at"], seen["stamp"] = sim.now, stamp
        tentative, committed = session.get("k"), session.get(
            "k", mode="committed")
        seen["tentative"], seen["committed"] = (yield tentative), (
            yield committed)

    spawn(sim, script())
    sim.run()
    assert seen["put_at"] == 10.0         # 5 ms each way
    assert seen["tentative"] == ("v", None)
    assert seen["committed"] == (None, None)
    cluster.run_until_converged()
    assert cluster.replicas[1].committed_stamps() == [seen["stamp"]]
    cluster.crash("by1")
    late = session.get("k", mode="committed", timeout=50.0)
    sim.run()
    assert isinstance(late.error, ReproTimeoutError)
