"""Behavioral unit tests for every CRDT type."""

import pytest

from repro.crdt import (
    RGA,
    GCounter,
    LWWRegister,
    MVRegister,
    ORSet,
    PNCounter,
    TwoPSet,
)
from repro.sim import estimate_size


# ----------------------------------------------------------------------
# Counters
# ----------------------------------------------------------------------

def test_gcounter_counts_across_replicas():
    a, b = GCounter("a"), GCounter("b")
    a.increment(3)
    b.increment()
    a.merge(b)
    assert a.value == 4


def test_gcounter_merge_does_not_double_count():
    a, b = GCounter("a"), GCounter("b")
    a.increment(5)
    b.merge(a)
    b.merge(a)
    b.increment(1)
    a.merge(b)
    assert a.value == 6


def test_gcounter_rejects_nonpositive():
    with pytest.raises(ValueError):
        GCounter("a").increment(0)
    with pytest.raises(ValueError):
        GCounter("a").increment(-2)


def test_gcounter_type_safety():
    with pytest.raises(TypeError):
        GCounter("a").merge(PNCounter("b"))


def test_gcounter_state_roundtrip():
    a = GCounter("a")
    a.increment(7)
    restored = GCounter.from_state("a", a.state())
    restored.increment(1)
    assert restored.value == 8


def test_pncounter_increments_and_decrements():
    a, b = PNCounter("a"), PNCounter("b")
    a.increment(10)
    a.decrement(3)
    b.decrement(2)
    a.merge(b)
    b.merge(a)
    assert a.value == b.value == 5


def test_pncounter_can_go_negative():
    a = PNCounter("a")
    a.decrement(4)
    assert a.value == -4


# ----------------------------------------------------------------------
# Registers
# ----------------------------------------------------------------------

def test_lww_register_local_sequence():
    r = LWWRegister("a")
    assert r.value is None
    r.assign("x")
    r.assign("y")
    assert r.value == "y"


def test_lww_register_merge_picks_single_winner():
    a, b = LWWRegister("a"), LWWRegister("b")
    a.assign("from-a")
    b.assign("from-b")
    a.merge(b)
    b.merge(a)
    assert a.value == b.value
    assert a.value in ("from-a", "from-b")


def test_lww_register_write_after_merge_wins():
    a, b = LWWRegister("a"), LWWRegister("b")
    for _ in range(5):
        b.assign("spam")
    a.merge(b)
    a.assign("final")
    b.merge(a)
    assert b.value == "final"


def test_mv_register_keeps_concurrent_values():
    a, b = MVRegister("a"), MVRegister("b")
    a.assign("x")
    b.assign("y")
    a.merge(b)
    assert sorted(a.values) == ["x", "y"]
    assert sorted(a.value) == ["x", "y"]  # ambiguous -> list


def test_mv_register_assign_resolves_seen_siblings():
    a, b = MVRegister("a"), MVRegister("b")
    a.assign("x")
    b.assign("y")
    a.merge(b)
    a.assign("resolved")
    b.merge(a)
    assert b.values == ["resolved"]
    assert b.value == "resolved"


def test_mv_register_unseen_write_stays_concurrent():
    a, b = MVRegister("a"), MVRegister("b")
    a.assign("x")
    b.merge(a.copy())
    b.assign("y")      # causally after x
    a.assign("z")      # concurrent with y
    b.merge(a)
    assert sorted(b.values) == ["y", "z"]


def test_mv_register_duplicate_merge_no_sibling_duplication():
    a, b = MVRegister("a"), MVRegister("b")
    a.assign("x")
    b.merge(a.copy())
    b.merge(a.copy())
    assert b.values == ["x"]


# ----------------------------------------------------------------------
# Sets
# ----------------------------------------------------------------------

def test_2pset_remove_is_permanent():
    a = TwoPSet("a")
    a.add("x")
    a.remove("x")
    a.add("x")  # re-add has no effect
    assert "x" not in a
    assert a.value == frozenset()


def test_2pset_remove_propagates_via_merge():
    a, b = TwoPSet("a"), TwoPSet("b")
    a.add("x")
    b.merge(a)
    b.remove("x")
    a.merge(b)
    assert "x" not in a and len(a) == 0


def test_orset_add_remove_add_again():
    a = ORSet("a")
    a.add("x")
    a.remove("x")
    assert "x" not in a
    a.add("x")
    assert "x" in a


def test_orset_add_wins_over_concurrent_remove():
    a, b = ORSet("a"), ORSet("b")
    a.add("x")
    b.merge(a.copy())
    b.remove("x")        # removes the tag it saw
    a.add("x")           # concurrent new tag
    a.merge(b)
    b.merge(a.copy())
    assert "x" in a and "x" in b


def test_orset_remove_only_observed_tags():
    a, b = ORSet("a"), ORSet("b")
    a.add("x")
    b.add("x")  # independent tag, never seen by a
    a.remove("x")
    b.merge(a)
    assert "x" in b  # b's own tag survives


def test_orset_len_iter_value():
    a = ORSet("a")
    for item in ("p", "q", "r"):
        a.add(item)
    a.remove("q")
    assert len(a) == 2
    assert set(a) == {"p", "r"}
    assert a.value == frozenset({"p", "r"})


def test_orset_counter_survives_merge_of_own_tags():
    a = ORSet("a")
    a.add("x")
    fresh = ORSet("a")  # same replica id, e.g. after restart
    fresh.merge(a)
    fresh.add("y")
    tags = fresh.live_tags("y")
    assert all(tag not in a.live_tags("x") for tag in tags)


def test_readd_keeps_one_live_dot():
    """Almeida's add: the fresh dot replaces the element's live ones, so
    the state does not grow with re-adds, and the delta names the dots
    it retires."""
    for readds in (3, 16_000):
        a = ORSet("a")
        for _ in range(readds):
            a.add("x")
        assert a.live_tags("x") == frozenset({("a", readds)})
        assert estimate_size(a.state()) < 100
    a = ORSet("a")
    a.add("x")
    assert a.add("x").state()["cloud"] == [("a", 1), ("a", 2)]


def test_orset_readd_delta_retires_the_replaced_dot():
    """``add, add, remove`` shipped as deltas, in order: the observer
    ends without ``x``, like the source.  The remove's delta names only
    the live dot; the earlier one is retired by the re-add's delta."""
    source, observer = ORSet("a"), ORSet("b")
    for delta in (source.add("x"), source.add("x"), source.remove("x")):
        observer.merge(delta)
    assert "x" not in source
    assert "x" not in observer
    assert observer.state() == source.state()


# ----------------------------------------------------------------------
# RGA
# ----------------------------------------------------------------------

def test_rga_local_editing():
    r = RGA("a")
    for ch in "hello":
        r.append(ch)
    r.insert(0, ">")
    r.delete(3)
    assert "".join(r.to_list()) == ">helo"
    assert len(r) == 5
    assert r[0] == ">"
    assert list(r) == [">", "h", "e", "l", "o"]


def test_rga_insert_bounds_checked():
    r = RGA("a")
    with pytest.raises(IndexError):
        r.insert(1, "x")
    with pytest.raises(IndexError):
        r.delete(0)


def test_rga_concurrent_inserts_converge():
    a, b = RGA("a"), RGA("b")
    for ch in "ad":
        a.append(ch)
    b.merge(a.copy())
    a.insert(1, "b")
    b.insert(1, "c")
    a.merge(b)
    b.merge(a.copy())
    assert a.to_list() == b.to_list()
    assert set(a.to_list()) == {"a", "b", "c", "d"}
    assert a.to_list()[0] == "a" and a.to_list()[-1] == "d"


def test_rga_same_replica_run_stays_contiguous():
    a, b = RGA("a"), RGA("b")
    a.append("x")
    b.merge(a.copy())
    # a types "123" after x while b types "456" after x.
    for ch in "123":
        a.append(ch)
    for ch in "456":
        b.append(ch)
    a.merge(b)
    text = "".join(a.to_list())
    assert "123" in text and "456" in text  # runs not interleaved


def test_rga_delete_propagates():
    a, b = RGA("a"), RGA("b")
    for ch in "abc":
        a.append(ch)
    b.merge(a.copy())
    b.delete(1)
    a.merge(b)
    assert "".join(a.to_list()) == "ac"
    assert a.tombstone_count == 1


def test_rga_merge_idempotent_duplicate_nodes():
    a, b = RGA("a"), RGA("b")
    a.append("x")
    b.merge(a.copy())
    b.merge(a.copy())
    assert b.to_list() == ["x"]


# ----------------------------------------------------------------------
# Deltas: the small states ORSet / GCounter mutators return
# ----------------------------------------------------------------------

def test_delta_gcounter_delta_carries_increment():
    a, b = GCounter("a"), GCounter("b")
    delta = a.increment(5)
    assert type(delta) is GCounter and delta.state() == {"a": 5}
    b.merge(delta)
    assert b.value == 5
    assert a.value == 5


def test_delta_gcounter_split_drains_group():
    """What ``split()`` buffered inside the counter, the caller now
    holds: a delta group is a fresh ``GCounter`` the deltas are joined
    into, shipped, and replaced by a new one."""
    a, b = GCounter("a"), GCounter("b")
    group = GCounter("a")
    group.merge(a.increment(1))
    group.merge(a.increment(2))
    assert group.value == 3
    b.merge(group)
    group = GCounter("a")          # drained: the next group starts empty
    group.merge(a.increment(4))
    assert group.state() == {"a": 7}
    b.merge(group)
    assert b.value == a.value == 7


def test_delta_gcounter_forwarding_via_merge():
    a, b, c = GCounter("a"), GCounter("b"), GCounter("c")
    delta = a.increment(4)
    b.merge(delta)
    c.merge(delta)             # b forwards the delta it learned from
    c.merge(b.increment(1))
    assert c.value == 5


def test_delta_orset_add_remove_via_deltas():
    a, b = ORSet("a"), ORSet("b")
    b.merge(a.add("x"))
    assert "x" in b
    a.merge(b.remove("x"))
    assert "x" not in a


def test_delta_orset_remove_of_absent_is_noop_delta():
    a = ORSet("a")
    a.add("kept")
    delta = a.remove("ghost")
    assert delta.value == frozenset()
    assert delta.state() == {"dots": {}, "context": {}}
    b = ORSet("b")
    b.merge(a.copy())
    b.merge(delta)
    assert b.value == frozenset({"kept"})


def test_delta_orset_split_accumulates_multiple_ops():
    """The ``split()`` pattern, caller-side: join the deltas into a
    fresh ``ORSet`` and ship that."""
    a, b = ORSet("a"), ORSet("b")
    group = ORSet("a")
    for delta in (a.add("x"), a.add("y"), a.remove("x")):
        group.merge(delta)
    b.merge(group)
    assert b.value == frozenset({"y"})
    # The group saw both of a's dots in order: it compacted to a prefix.
    assert group.state()["context"] == {"'a'": 2}
    assert "cloud" not in group.state()


def test_delta_merge_matches_full_state_merge():
    a = ORSet("a")
    deltas = [a.add("p"), a.add("q"), a.remove("p")]
    via_state, via_deltas = ORSet("b"), ORSet("b")
    for b in (via_state, via_deltas):
        b.add("r")
    via_state.merge(a.copy())
    for delta in reversed(deltas):      # out of order on purpose
        via_deltas.merge(delta)
    assert via_state.value == via_deltas.value == frozenset({"q", "r"})
    assert via_state.state() == via_deltas.state()


def test_delta_of_a_remove_deletes_only_the_dots_it_names():
    """The over-covering failure a per-replica-max context would cause:
    a's remove of "x" carries dot (a,1) only, so it may not touch "y"
    (dot (a,2), which a minted *before* the remove) at a peer that
    holds both."""
    a, b = ORSet("a"), ORSet("b")
    a.add("x")
    a.add("y")
    b.merge(a.copy())
    b.add("x")                           # b's own dot on x, unseen by a
    removal = a.remove("x")
    assert removal.state() == {"dots": {}, "context": {}, "cloud": [("a", 1)]}
    b.merge(removal)
    assert b.live_tags("x") == frozenset({("b", 1)})   # add-wins, a's dot gone
    assert b.live_tags("y") == frozenset({("a", 2)})   # untouched
    # And a peer that has seen nothing learns nothing live from it.
    c = ORSet("c")
    c.merge(removal)
    c.merge(a.copy())
    assert c.value == frozenset({"y"})


def test_orset_dot_minted_over_a_gap_goes_to_the_cloud():
    """A restarted replica that has only its own third dot back may not
    claim dots 1 and 2 when it mints the fourth."""
    a = ORSet("a")
    a.add("p"); a.add("q")
    third = a.add("r")
    fresh = ORSet("a")
    fresh.merge(third)
    fresh.add("s")
    assert fresh.state()["context"] == {}
    assert fresh.state()["cloud"] == [("a", 3), ("a", 4)]
    fresh.merge(a.copy())                # the gap closes: all prefix again
    assert fresh.value == frozenset({"p", "q", "r", "s"})
    assert fresh.state()["context"] == {"'a'": 4}
    assert "cloud" not in fresh.state()


def test_rga_insert_after_cursor_semantics():
    a, b = RGA("a"), RGA("b")
    cursor = None
    for ch in "abc":
        cursor = a.insert_after(cursor, ch)
    b.merge(a.copy())
    # Both type runs concurrently with cursors anchored on 'c'.
    cur_a, cur_b = cursor, cursor
    for ch in "12":
        cur_a = a.insert_after(cur_a, ch)
    for ch in "89":
        cur_b = b.insert_after(cur_b, ch)
    a.merge(b)
    b.merge(a.copy())
    text = "".join(a.to_list())
    assert text == "".join(b.to_list())
    assert "12" in text and "89" in text  # runs contiguous
    assert text.startswith("abc")


def test_rga_insert_after_unknown_parent_rejected():
    r = RGA("a")
    with pytest.raises(KeyError):
        r.insert_after((5, "ghost"), "x")


def test_rga_insert_after_head():
    r = RGA("a")
    r.append("b")
    r.insert_after(None, "a")
    assert r.to_list() == ["a", "b"]
