"""Rebalance property of the consistent hash ring.

The reason :class:`~repro.replication.ring.HashRing` (and the sharded
router built on it) uses consistent hashing instead of ``hash(key) %
N``: adding or removing one node relocates only ~1/N of the keyspace,
and every relocated key moves *to* the new node (on add) or *from* the
departed node (on remove) — no unrelated shuffling.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.replication import HashRing
from repro.replication.ring import stable_hash

KEYS = [f"key-{i}" for i in range(2000)]

node_counts = st.integers(min_value=2, max_value=8)
seeds = st.integers(min_value=0, max_value=10_000)


def assignment(ring):
    return {key: ring.coordinator(key) for key in KEYS}


@settings(max_examples=25, deadline=None)
@given(n=node_counts, seed=seeds)
def test_add_node_moves_about_one_over_n(n, seed):
    ring = HashRing([f"n{seed}-{i}" for i in range(n)], vnodes=64)
    before = assignment(ring)
    newcomer = f"n{seed}-new"
    ring.add_node(newcomer)
    after = assignment(ring)

    moved = [key for key in KEYS if before[key] != after[key]]
    # Every moved key moved TO the new node, never between old nodes.
    assert all(after[key] == newcomer for key in moved)
    # And roughly 1/(n+1) of the keyspace moved (generous envelope:
    # vnode placement is random-ish, so allow 3x either way).
    expected = len(KEYS) / (n + 1)
    assert expected / 3 <= len(moved) <= expected * 3


@settings(max_examples=25, deadline=None)
@given(n=node_counts, seed=seeds)
def test_remove_node_moves_only_its_keys(n, seed):
    nodes = [f"m{seed}-{i}" for i in range(n + 1)]
    ring = HashRing(nodes, vnodes=64)
    before = assignment(ring)
    victim = nodes[seed % len(nodes)]
    ring.remove_node(victim)
    after = assignment(ring)

    for key in KEYS:
        if before[key] == victim:
            assert after[key] != victim          # reassigned somewhere
        else:
            assert after[key] == before[key]     # untouched


def test_round_trip_add_remove_is_identity():
    ring = HashRing(["a", "b", "c"], vnodes=32)
    before = assignment(ring)
    ring.add_node("d")
    ring.remove_node("d")
    assert assignment(ring) == before


def test_remove_last_node_raises_instead_of_emptying_the_ring():
    # Regression (satellite): removing the final node used to leave an
    # empty ring whose next coordinator() lookup failed obscurely.
    ring = HashRing(["only"], vnodes=8)
    with pytest.raises(ValueError, match="last node"):
        ring.remove_node("only")
    # The ring is untouched and still routes.
    assert ring.nodes == ["only"]
    assert ring.coordinator("anything") == "only"


def test_membership_changes_bump_the_ring_version():
    ring = HashRing(["a", "b"], vnodes=8)
    start = ring.version
    ring.add_node("c")
    assert ring.version == start + 1
    ring.remove_node("c")
    assert ring.version == start + 2


def full_scan_walk(ring, key):
    """Reference: every token once, clockwise from the key's, keeping
    each node's first appearance (what ``_walk_from`` did before it
    learned to stop once every node is in)."""
    tokens = sorted((stable_hash((node, i)), node)
                    for node in ring.nodes for i in range(ring.vnodes))
    position = stable_hash(key)
    clockwise = ([node for token, node in tokens if token > position]
                 + [node for token, node in tokens if token <= position])
    return tuple(dict.fromkeys(clockwise))


@settings(max_examples=60, deadline=None)
@given(
    names=st.lists(st.integers(0, 40), min_size=1, max_size=7, unique=True),
    vnodes=st.integers(min_value=1, max_value=24),
    keys=st.lists(st.one_of(st.integers(), st.text(max_size=6)),
                  min_size=1, max_size=12),
    seed=seeds,
)
def test_walk_equals_full_scan_across_membership_changes(
    names, vnodes, keys, seed
):
    ring = HashRing([f"w{name}" for name in names], vnodes=vnodes)

    def check():
        for key in keys:
            walk = ring._walk_from(key)
            assert walk == full_scan_walk(ring, key)
            assert sorted(walk) == sorted(ring.nodes)
            assert ring._walk_from(key) is walk      # cached tuple

    check()
    ring.add_node("newcomer")
    check()
    ring.remove_node(ring.nodes[seed % len(ring.nodes)])
    check()
