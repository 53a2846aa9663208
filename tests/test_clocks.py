"""Unit + property tests for logical clocks."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.clocks import (
    CausalBuffer,
    DottedValueSet,
    LamportClock,
    LamportStamp,
    delivery,
)
from repro.clocks.dvv import join, join_context


# ----------------------------------------------------------------------
# Lamport
# ----------------------------------------------------------------------

def test_lamport_tick_monotonic():
    clock = LamportClock("a")
    stamps = [clock.tick() for _ in range(5)]
    assert stamps == sorted(stamps)
    assert stamps[-1].counter == 5


def test_lamport_observe_jumps_past_sender():
    a, b = LamportClock("a"), LamportClock("b")
    for _ in range(10):
        sent = a.tick()
    received = b.observe(sent)
    assert received > sent
    assert received.counter == 11


def test_lamport_ties_broken_by_node_id():
    assert LamportStamp(3, "a") < LamportStamp(3, "b")
    assert LamportStamp(3, "b") < LamportStamp(4, "a")


def test_lamport_peek_does_not_advance():
    clock = LamportClock("a")
    clock.tick()
    assert clock.peek() == clock.peek() == LamportStamp(1, "a")


def _lamport_key(stamp):
    return stamp.counter, str(stamp.node)


#: Few counters (ties), int and str node ids that can print alike (1, "1").
_STAMPS = st.builds(
    LamportStamp,
    st.integers(0, 3),
    st.one_of(st.integers(-2, 12), st.text(alphabet="01ab", max_size=2)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_STAMPS, min_size=1, max_size=8))
@example([LamportStamp(1, 1), LamportStamp(1, "1"), LamportStamp(1, 1)])
def test_lamport_order_is_the_counter_then_node_text_key(stamps):
    """Every comparison, ``sorted``, ``min`` and ``max`` agree with the
    ``(counter, str(node))`` key, equal stamps and look-alike ids included."""
    for a in stamps:
        for b in stamps:
            ka, kb = _lamport_key(a), _lamport_key(b)
            assert ((a < b), (a > b), (a <= b), (a >= b)) == (
                (ka < kb), (ka > kb), (ka <= kb), (ka >= kb))
    assert [id(s) for s in sorted(stamps)] == [
        id(s) for s in sorted(stamps, key=_lamport_key)]
    assert max(stamps) is max(stamps, key=_lamport_key)
    assert min(stamps) is min(stamps, key=_lamport_key)


def test_lamport_stamp_does_not_order_against_other_types():
    with pytest.raises(TypeError):
        LamportStamp(1, "a") < (1, "a")  # noqa: B015
    with pytest.raises(TypeError):
        LamportStamp(1, "a") >= 1  # noqa: B015


# ----------------------------------------------------------------------
# Version vectors: plain dicts, joined by ``join_context`` with empty
# clouds, read by ``delivery``
# ----------------------------------------------------------------------

def test_vector_clock_concurrency():
    # Two ops stamped on one base, neither seeing the other: each is
    # deliverable over the other, and both delivery orders end equal.
    a, b, c = (CausalBuffer(node, lambda e: None) for node in "abc")
    base = a.stamp_local("base")
    b.receive(base)
    c.receive(base)
    left, right = b.stamp_local("left"), c.stamp_local("right")
    assert delivery(left.clock, right.clock, "c") is True
    assert delivery(right.clock, left.clock, "b") is True
    one, two = CausalBuffer("x", lambda e: None), CausalBuffer("y", lambda e: None)
    for envelope in (base, left, right):
        one.receive(envelope)
    for envelope in (base, right, left):
        two.receive(envelope)
    assert one.clock == two.clock == {"a": 1, "b": 1, "c": 1}


nodes_st = st.sampled_from(["a", "b", "c", "d"])
clock_st = st.dictionaries(nodes_st, st.integers(min_value=1, max_value=8))


def vv_join(v, w):
    """The version-vector join: ``join_context`` over two empty clouds."""
    joined = dict(v)
    assert join_context(joined, frozenset(), w, frozenset()) == frozenset()
    return joined


@given(clock_st, clock_st)
def test_merge_commutative(v, w):
    assert vv_join(v, w) == vv_join(w, v)


@given(clock_st, clock_st, clock_st)
@settings(max_examples=60)
def test_merge_associative(u, v, w):
    assert vv_join(vv_join(u, v), w) == vv_join(u, vv_join(v, w))


@given(clock_st)
def test_merge_idempotent(v):
    assert vv_join(v, v) == v


@given(clock_st, clock_st)
def test_merge_is_least_upper_bound(v, w):
    m = vv_join(v, w)
    assert set(m) == set(v) | set(w)
    for node in m:
        assert m[node] == max(v.get(node, 0), w.get(node, 0))


@given(clock_st, clock_st, nodes_st)
def test_delivery_classifies_like_the_mapping_rule(v, w, origin):
    # ``w`` is an arbitrary stamp; ``ready`` is built to be deliverable:
    # at most ``v`` everywhere, then one past ``v`` at its origin.
    ready = {n: min(v[n], w[n]) for n in v if n in w}
    ready[origin] = v.get(origin, 0) + 1
    for stamp in (w, ready):
        next_op = stamp.get(origin, 0) == v.get(origin, 0) + 1 and all(
            count <= v.get(n, 0) for n, count in stamp.items() if n != origin)
        expected = None if stamp.get(origin, 0) <= v.get(origin, 0) else next_op
        assert delivery(v, stamp, origin) is expected
    ticked = {**v, origin: v.get(origin, 0) + 1}
    assert vv_join(v, ready) == ticked
    assert list(vv_join(v, ready)) == list(ticked)   # same key order


@given(clock_st, st.sampled_from(["a", "b", "c"]))
def test_tick_strictly_advances(v, node):
    buffer = CausalBuffer(node, lambda e: None)
    buffer.clock.update(v)
    stamp = buffer.stamp_local("op").clock
    assert vv_join(stamp, v) == stamp != v
    assert stamp[node] == v.get(node, 0) + 1


# ----------------------------------------------------------------------
# Dotted version vectors
# ----------------------------------------------------------------------

def test_dvv_blind_writes_become_siblings():
    s = DottedValueSet()
    empty = s.clock
    s = s.put("r1", "a", empty)
    s = s.put("r1", "b", empty)
    assert sorted(s.values()) == ["a", "b"]


def test_dvv_read_modify_write_collapses_siblings():
    s = DottedValueSet()
    s = s.put("r1", "a", s.clock)
    s = s.put("r2", "b", {})  # concurrent via other replica
    assert len(s.values()) == 2
    s = s.put("r1", "winner", s.clock)
    assert s.values() == ["winner"]


def test_dvv_sync_is_idempotent_commutative():
    s1 = DottedValueSet().put("r1", "a", {})
    s2 = DottedValueSet().put("r2", "b", {})
    merged_a = s1.sync(s2)
    merged_b = s2.sync(s1)
    assert sorted(map(repr, merged_a.values())) == sorted(map(repr, merged_b.values()))
    assert merged_a.sync(merged_a).values() == merged_a.values()
    assert sorted(merged_a.values()) == ["a", "b"]


def test_dvv_sync_drops_versions_other_side_saw_and_superseded():
    s1 = DottedValueSet().put("r1", "old", {})
    s2 = s1.put("r1", "new", s1.clock)  # r1 advanced locally
    # s1 still has "old"; sync with s2 (which saw and superseded it)
    merged = s1.sync(s2)
    assert merged.values() == ["new"]


def test_dvv_no_sibling_explosion_through_one_coordinator():
    # Two clients interleave read-modify-writes through the same
    # coordinator.  With dotted version vectors the sibling set stays
    # bounded by the number of concurrent writers (here 2), instead of
    # growing with the number of writes (the classic VV explosion).
    s = DottedValueSet()
    for i in range(10):
        stale_ctx = s.clock                   # client 1 reads
        s = s.put("r1", f"c2-{i}", s.clock)   # client 2 read+write
        s = s.put("r1", f"c1-{i}", stale_ctx)     # client 1 writes stale
        assert len(s.values()) <= 2
    assert len(s.values()) == 2


def test_dvv_blind_writes_legitimately_accumulate():
    # Writes that never read (empty context) really are pairwise
    # concurrent, so a correct DVV store must keep them all.
    s = DottedValueSet()
    for i in range(5):
        s = s.put("r1", i, {})
    assert len(s.values()) == 5



# ----------------------------------------------------------------------
# The dot kernel against the set formula
# ----------------------------------------------------------------------

dots_st = st.frozensets(st.tuples(st.sampled_from("ab"), st.integers(1, 6)),
                        max_size=8)
#: A state: a dot store, an explicit finite set of seen dots, and how
#: far short of the longest run from 1 its prefix is cut.
state_st = st.tuples(
    st.dictionaries(st.sampled_from("xyz"), dots_st.filter(bool), max_size=3),
    dots_st,
    st.integers(0, 3),
)


def _represent(seen, cut):
    """``seen`` as ``(prefix, cloud)`` with each replica's prefix cut
    ``cut`` dots short of its longest run from 1, so the cloud holds
    dots that extend the prefix, as a delta's cloud does."""
    prefix = {}
    for replica in "ab":
        run = 0
        while (replica, run + 1) in seen:
            run += 1
        if run > cut:
            prefix[replica] = run - cut
    return prefix, frozenset(d for d in seen if d[1] > prefix.get(d[0], 0))


def _expand(prefix, cloud):
    return cloud | {
        (replica, n) for replica, top in prefix.items()
        for n in range(1, top + 1)
    }


@given(ours=state_st, theirs=state_st)
@settings(max_examples=300, deadline=None)
def test_dot_join_is_the_set_formula(ours, theirs):
    """Per key ``(s ∩ s′) ∪ (s ∖ c′) ∪ (s′ ∖ c)``, empty keys gone, ours
    in place and new keys after in their order; the context becomes
    ``c ∪ c′``, compacted: no cloud dot its prefix covers or extends.
    ``join_context`` alone does the same to the contexts."""
    (store, seen, cut), (other, oseen, ocut) = ours, theirs
    expected = {}
    for key in {**store, **other}:
        mine, theirs_ = store.get(key, frozenset()), other.get(key, frozenset())
        dots = (mine & theirs_) | (mine - oseen) | (theirs_ - seen)
        if dots:
            expected[key] = dots
    order = [key for key in {**store, **other} if key in expected]
    (prefix, cloud), (oprefix, ocloud) = _represent(seen, cut), _represent(oseen, ocut)
    alone = dict(prefix)
    alone_cloud = join_context(alone, cloud, oprefix, ocloud)
    cloud = join(store, prefix, cloud, other, oprefix, ocloud)
    assert store == expected and list(store) == order
    assert (alone, alone_cloud) == (prefix, cloud)
    assert _expand(prefix, cloud) == seen | oseen
    assert all(n > prefix.get(r, 0) + 1 for r, n in cloud)
