"""Per-type CRDT ``copy()`` implementations: independence + equivalence.

``StateCRDT.copy`` used to be ``copy.deepcopy``; every concrete type
now hand-rolls a structural copy of its own containers (deepcopy
dominated the CRDT gossip benchmarks).  Each test checks the contract
the gossip layer relies on: the copy reports the same value, and
mutating either side afterwards never leaks into the other.
"""

import pytest

from repro.crdt import (
    GCounter,
    LWWRegister,
    MVRegister,
    ORSet,
    PNCounter,
    RGA,
    TwoPSet,
)


def test_gcounter_copy_independent():
    a = GCounter("a")
    a.increment(3)
    b = a.copy()
    assert type(b) is GCounter and b.replica_id == "a"
    assert b.value == 3
    a.increment(2)
    b.increment(10)
    assert a.value == 5
    assert b.value == 13


def test_pncounter_copy_independent():
    a = PNCounter("a")
    a.increment(10)
    a.decrement(4)
    b = a.copy()
    assert b.value == 6
    a.decrement(1)
    b.increment(1)
    assert a.value == 5
    assert b.value == 7


def test_twopset_copy_independent():
    a = TwoPSet("a")
    a.add("x")
    a.add("y")
    a.remove("y")
    b = a.copy()
    b.remove("x")
    assert "x" in a
    assert "x" not in b
    assert "y" not in a and "y" not in b


def test_orset_copy_independent_and_tag_safe():
    a = ORSet("a")
    a.add("x")
    a.add("x")
    a.remove("x")
    a.add("y")
    b = a.copy()
    assert b.value == a.value == frozenset({"y"})
    # A remove on the copy drops the dots the copy observed; it may
    # not affect the original.
    b.remove("y")
    assert "y" in a
    assert "y" not in b
    # The tag counter travels with the copy, so a later add on the
    # copy does not collide with tags the original already minted.
    before = a.live_tags("y")
    b.add("z")
    assert ("a", max(c for _r, c in before)) != next(iter(b.live_tags("z")))


def test_lww_register_copy_shares_immutable_stamp():
    a = LWWRegister("a")
    a.assign("v1")
    b = a.copy()
    assert b.value == "v1"
    assert b.stamp == a.stamp
    b.assign("v2")
    assert a.value == "v1"
    # The copy saw a's stamp, so its write wins a merge.
    a.merge(b)
    assert a.value == "v2"


def test_mv_register_copy_independent_siblings():
    a = MVRegister("a")
    a.assign("x")
    other = MVRegister("b")
    other.assign("y")
    a.merge(other)
    b = a.copy()
    assert sorted(b.values) == ["x", "y"]
    b.assign("z")  # supersedes both siblings in the copy only
    assert sorted(a.values) == ["x", "y"]
    assert b.values == ["z"]


def test_rga_copy_independent():
    a = RGA("a")
    a.append("h")
    a.append("i")
    b = a.copy()
    b.insert(1, "!")
    a.delete(0)
    assert a.to_list() == ["i"]
    assert b.to_list() == ["h", "!", "i"]


def test_delta_gcounter_copy_carries_delta_group():
    a = GCounter("a")
    group = GCounter("a")
    group.merge(a.increment(3))
    b = group.copy()
    assert type(b) is GCounter
    assert b.value == 3
    # The copied group is independent of the one still accumulating.
    group.merge(a.increment(2))
    assert group.value == 5
    assert b.value == 3


def test_delta_orset_copy_carries_pending_delta():
    a = ORSet("a")
    a.add("w")
    pending = a.add("x")        # dot (a,2) alone: context is cloud-only
    b = pending.copy()
    assert type(b) is ORSet
    assert "x" in b
    assert b.state() == pending.state()
    assert b.state()["cloud"] == [("a", 2)]
    # Joining into the copy leaves the original delta intact.
    b.merge(a.copy())
    assert b.value == frozenset({"w", "x"}) and "cloud" not in b.state()
    assert pending.value == frozenset({"x"})
    assert pending.state()["cloud"] == [("a", 2)]


@pytest.mark.parametrize("factory", [
    lambda: GCounter("r"),
    lambda: PNCounter("r"),
    lambda: PNCounter(("dc", 1)),
    lambda: TwoPSet("r"),
    lambda: ORSet("r"),
    lambda: TwoPSet(("dc", 1)),
    lambda: LWWRegister("r"),
    lambda: MVRegister("r"),
    lambda: MVRegister(("dc", 1)),
    lambda: GCounter(("dc", 1)),            # a non-string replica id
    lambda: RGA("r"),
    lambda: ORSet("r").remove("ghost"),     # the empty delta
    lambda: ORSet(("dc", 1)),
])
def test_copy_of_empty_instance_matches(factory):
    original = factory()
    clone = original.copy()
    assert type(clone) is type(original)
    assert clone.replica_id == original.replica_id
    assert clone.value == original.value
