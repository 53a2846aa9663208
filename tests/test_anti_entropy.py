"""Tests for gossip anti-entropy and Merkle trees."""

import pytest

from repro.checkers import check_convergence
from repro.replication import GossipCluster, build_tree
from repro.replication.merkle import bucket_of, keys_in_buckets
from repro.sim import FixedLatency, Network, Simulator


def make_cluster(seed=0, **kwargs):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=FixedLatency(2.0), track_bytes=True)
    kwargs.setdefault("nodes", 6)
    kwargs.setdefault("interval", 10.0)
    cluster = GossipCluster(sim, net, **kwargs)
    return sim, net, cluster


def differing_leaves(mine, theirs):
    """Leaf buckets whose hashes differ: what a gossip exchange ships."""
    return [
        index
        for index, (a, b) in enumerate(zip(mine.leaf_hashes, theirs.leaf_hashes))
        if a != b
    ]


# ----------------------------------------------------------------------
# Merkle trees
# ----------------------------------------------------------------------

def test_identical_states_have_identical_roots():
    entries = {f"k{i}": f"v{i}" for i in range(50)}
    assert build_tree(entries).root == build_tree(dict(entries)).root


def test_single_difference_localized_to_one_leaf():
    entries = {f"k{i}": f"v{i}" for i in range(50)}
    changed = dict(entries)
    changed["k7"] = "CHANGED"
    diff = differing_leaves(build_tree(entries), build_tree(changed))
    assert diff == [bucket_of("k7", 6)]


def test_missing_key_detected():
    entries = {f"k{i}": i for i in range(20)}
    partial = {k: v for k, v in entries.items() if k != "k3"}
    diff = differing_leaves(build_tree(entries), build_tree(partial))
    assert bucket_of("k3", 6) in diff


def test_no_difference_no_leaves():
    entries = {"a": 1}
    assert differing_leaves(build_tree(entries), build_tree(entries)) == []


def test_depth_mismatch_rejected():
    with pytest.raises(ValueError):
        build_tree({}, depth=-1)


def test_keys_in_buckets_filters_correctly():
    entries = {f"k{i}": i for i in range(40)}
    buckets = {bucket_of("k5", 6), bucket_of("k20", 6)}
    keys = keys_in_buckets(entries, buckets, 6)
    assert "k5" in keys and "k20" in keys
    assert all(bucket_of(k, 6) in buckets for k in keys)


# ----------------------------------------------------------------------
# Gossip convergence
# ----------------------------------------------------------------------

@pytest.mark.parametrize("strategy", ["full", "merkle"])
def test_gossip_converges_all_replicas(strategy):
    sim, _net, cluster = make_cluster(strategy=strategy, seed=1)
    # Disjoint writes at different replicas.
    for index, replica in enumerate(cluster.replicas):
        replica.write(f"key-{index}", f"value-{index}")
    when = cluster.run_until_converged()
    assert when < 2_000.0
    verdict = check_convergence(cluster.snapshots())
    assert verdict.ok
    assert len(cluster.replicas[0].snapshot()) == 6


@pytest.mark.parametrize("strategy", ["full", "merkle"])
def test_gossip_resolves_conflicting_writes_lww(strategy):
    sim, _net, cluster = make_cluster(strategy=strategy, seed=2)
    cluster.replicas[0].write("k", "from-0")
    cluster.replicas[3].write("k", "from-3")
    cluster.run_until_converged()
    values = {replica.read("k") for replica in cluster.replicas}
    assert len(values) == 1
    assert values.pop() in ("from-0", "from-3")


def test_local_write_visible_immediately_elsewhere_eventually():
    sim, _net, cluster = make_cluster(seed=3)
    replica = cluster.replicas[2]
    replica.write("k", 42)
    assert replica.read("k") == 42
    assert cluster.replicas[0].read("k") is None  # not yet
    cluster.run_until_converged()
    assert cluster.replicas[0].read("k") == 42


def test_divergence_reaches_zero_only_at_convergence():
    sim, _net, cluster = make_cluster(seed=4, nodes=16, fanout=1,
                                      interval=20.0)
    for index, replica in enumerate(cluster.replicas):
        for j in range(5):
            replica.write(f"key-{index}-{j}", j)
    assert not check_convergence(cluster.snapshots()).ok
    sim.run(until=15.0)
    assert not check_convergence(cluster.snapshots()).ok
    assert not cluster.converged()
    cluster.run_until_converged()
    assert check_convergence(cluster.snapshots()).ok
    assert cluster.converged()


def test_higher_fanout_converges_faster():
    times = {}
    for fanout in (1, 3):
        sim, _net, cluster = make_cluster(seed=5, nodes=12, fanout=fanout)
        for index, replica in enumerate(cluster.replicas):
            replica.write(f"key-{index}", index)
        times[fanout] = cluster.run_until_converged(poll=2.0)
    assert times[3] < times[1]


def test_merkle_uses_fewer_bytes_when_nearly_converged():
    byte_counts = {}
    for strategy in ("full", "merkle"):
        sim, net, cluster = make_cluster(
            seed=6, nodes=4, strategy=strategy, interval=10.0,
        )
        # Big common database, then one divergent key.
        for i in range(200):
            cluster.replicas[0].write(f"common-{i}", i)
        cluster.run_until_converged()
        baseline = sim.metrics.counter("net.bytes_sent").value
        cluster.replicas[1].write("fresh", "x")
        cluster.run_until_converged()
        byte_counts[strategy] = sim.metrics.counter("net.bytes_sent").value - baseline
    assert byte_counts["merkle"] < byte_counts["full"] / 5


def test_crashed_replica_catches_up_after_recovery():
    sim, _net, cluster = make_cluster(seed=7, nodes=4)
    straggler = cluster.replicas[3]
    straggler.crash()
    cluster.replicas[0].write("k", "v")
    sim.run(until=200.0)
    assert straggler.read("k") is None
    straggler.recover()
    # Recovery does not re-arm its gossip timer automatically, but
    # peers push to it; converge via peer rounds.
    when = cluster.run_until_converged()
    assert straggler.read("k") == "v"


def test_crashed_replica_stops_gossiping():
    # Fail-stop at the network layer: even a send issued on behalf of a
    # crashed replica (e.g. a stray timer or buggy protocol code) is
    # dropped at the wire, so its unique data cannot leak out.
    sim, net, cluster = make_cluster(seed=8, nodes=3, interval=None)
    from repro.replication.anti_entropy import FullState

    dead = cluster.replicas[0]
    dead.write("secret", "only-here")
    dead.crash()
    before = sim.metrics.counter("net.messages_dropped_crash").value
    net.send(dead.node_id, cluster.replicas[1].node_id,
             FullState(dead._all_entries(), reply_expected=True))
    sim.run()
    assert sim.metrics.counter("net.messages_dropped_crash").value == before + 1
    assert cluster.replicas[1].read("secret") is None


def test_gossip_cluster_validations():
    sim = Simulator()
    net = Network(sim)
    with pytest.raises(ValueError):
        GossipCluster(sim, net, strategy="bogus")
    with pytest.raises(ValueError):
        GossipCluster(sim, net, fanout=0)
