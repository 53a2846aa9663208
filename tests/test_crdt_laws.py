"""Property-based tests: semilattice laws + convergence for all CRDTs.

Every state-based CRDT must satisfy, up to observable value:

* commutativity   merge(a, b) == merge(b, a)
* associativity   merge(merge(a, b), c) == merge(a, merge(b, c))
* idempotence     merge(a, a) == a
* inflation       merging never un-learns (checked via convergence)

plus the headline theorem: replicas applying arbitrary local ops and
exchanging states in an arbitrary (fair) order converge.

The harness is generic: each CRDT type registers a factory and an op
interpreter, and hypothesis drives random op sequences + merge orders.
The ``Delta<Type>`` rows run the same laws over *partial* states: what a
replica knows when it was fed some of a source's deltas, some of its
full states and missed the rest.

The second half states the delta join itself as properties: deltas —
shuffled, duplicated — join to the state, a remove's delta deletes only
what it names, and ``MVRegister`` is ``DottedValueSet`` with a replica
id.
"""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.clocks import DottedValueSet
from repro.clocks.dvv import join
from repro.crdt import (
    RGA,
    GCounter,
    LWWRegister,
    MVRegister,
    ORSet,
    PNCounter,
    TwoPSet,
)

REPLICAS = ("r1", "r2", "r3")


def _apply_counter(crdt, op):
    kind, arg = op
    if kind == 0:
        return crdt.increment(arg % 5 + 1)
    if hasattr(crdt, "decrement"):
        return crdt.decrement(arg % 3 + 1)
    return crdt.increment(arg % 7 + 1)


def _apply_register(crdt, op):
    _kind, arg = op
    crdt.assign(f"v{arg % 10}")


def _apply_set(crdt, op):
    kind, arg = op
    element = f"e{arg % 6}"
    if kind == 0 or not hasattr(crdt, "remove"):
        return crdt.add(element)
    return crdt.remove(element)


def _apply_rga(crdt, op):
    kind, arg = op
    if kind == 0 or len(crdt) == 0:
        crdt.insert(arg % (len(crdt) + 1), f"c{arg % 10}")
    else:
        crdt.delete(arg % len(crdt))


CRDT_SPECS = {
    "GCounter": (GCounter, _apply_counter),
    "PNCounter": (PNCounter, _apply_counter),
    "LWWRegister": (LWWRegister, _apply_register),
    "MVRegister": (MVRegister, _apply_register),
    "TwoPSet": (TwoPSet, _apply_set),
    "ORSet": (ORSet, _apply_set),
    "RGA": (RGA, _apply_rga),
}
#: Types whose mutators return deltas get a second row, ``Delta<Type>``:
#: the same laws over delta-fed partial states (see :func:`build`).
DELTA_FED = {f"Delta{cls.__name__}": cls.__name__ for cls in (GCounter, ORSet)}
CRDT_SPECS.update({row: CRDT_SPECS[base] for row, base in DELTA_FED.items()})


def observed(crdt):
    """Observable value, normalized for comparison."""
    value = crdt.value
    if isinstance(value, list):
        return tuple(value)
    return value


ops_st = st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, 30)), min_size=0, max_size=8
)


def build(spec_name, replica, ops):
    factory, interpreter = CRDT_SPECS[spec_name]
    crdt = factory(replica)
    if spec_name in DELTA_FED:
        # The ops run at a hidden source; ``crdt`` joins the delta of
        # every odd-argument op, the source's full state at every
        # tenth argument, and misses the rest — so it has gaps (for an
        # ORSet, a dot cloud) and the laws see deltas and full states
        # mixed.
        source = factory(replica)
        for op in ops:
            delta = interpreter(source, op)
            if op[1] % 2:
                crdt.merge(delta)
            elif op[1] % 10 == 0:
                crdt.merge(source.copy())
        return crdt
    for op in ops:
        interpreter(crdt, op)
    return crdt


@pytest.mark.parametrize("spec_name", sorted(CRDT_SPECS))
@given(ops_a=ops_st, ops_b=ops_st)
@settings(max_examples=40, deadline=None)
def test_merge_commutative(spec_name, ops_a, ops_b):
    a1 = build(spec_name, "r1", ops_a)
    b1 = build(spec_name, "r2", ops_b)
    a2 = build(spec_name, "r1", ops_a)
    b2 = build(spec_name, "r2", ops_b)
    left = a1.merge(b1)
    right = b2.merge(a2)
    assert observed(left) == observed(right)


@pytest.mark.parametrize("spec_name", sorted(CRDT_SPECS))
@given(ops_a=ops_st, ops_b=ops_st, ops_c=ops_st)
@settings(max_examples=25, deadline=None)
def test_merge_associative(spec_name, ops_a, ops_b, ops_c):
    def fresh():
        return (
            build(spec_name, "r1", ops_a),
            build(spec_name, "r2", ops_b),
            build(spec_name, "r3", ops_c),
        )

    a1, b1, c1 = fresh()
    left = a1.merge(b1).merge(c1)
    a2, b2, c2 = fresh()
    right = a2.merge(b2.merge(c2))
    assert observed(left) == observed(right)


@pytest.mark.parametrize("spec_name", sorted(CRDT_SPECS))
@given(ops=ops_st)
@settings(max_examples=40, deadline=None)
def test_merge_idempotent(spec_name, ops):
    a = build(spec_name, "r1", ops)
    before = observed(a)
    a.merge(build(spec_name, "r1", ops))  # identical twin
    assert observed(a) == before
    a.merge(a.copy())  # self-merge
    assert observed(a) == before


@pytest.mark.parametrize("spec_name", sorted(CRDT_SPECS))
@given(
    per_replica=st.tuples(ops_st, ops_st, ops_st),
    merge_schedule=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=10
    ),
)
@settings(max_examples=25, deadline=None)
def test_convergence_under_arbitrary_gossip(spec_name, per_replica, merge_schedule):
    """Random ops at 3 replicas + random partial gossip, then a full
    exchange ⇒ all replicas observe the same value."""
    replicas = [
        build(spec_name, REPLICAS[i], per_replica[i]) for i in range(3)
    ]
    for dst, src in merge_schedule:
        if dst != src:
            replicas[dst].merge(replicas[src].copy())
    # Final full anti-entropy round (twice, to reach the fixpoint).
    for _round in range(2):
        for i in range(3):
            for j in range(3):
                if i != j:
                    replicas[i].merge(replicas[j].copy())
    values = {observed(r) for r in replicas}
    assert len(values) == 1


@pytest.mark.parametrize("spec_name", sorted(CRDT_SPECS))
def test_state_is_plain_data(spec_name):
    """state() must be JSON-ish plain data (for wire-size accounting)."""
    crdt = build(spec_name, "r1", [(0, 1), (1, 2), (0, 3)])

    def check(obj):
        if obj is None or isinstance(obj, (bool, int, float, str)):
            return
        if isinstance(obj, (list, tuple, set, frozenset)):
            for item in obj:
                check(item)
            return
        if isinstance(obj, dict):
            for key, val in obj.items():
                check(key)
                check(val)
            return
        raise AssertionError(f"non-plain state component: {obj!r}")

    check(crdt.state())


@pytest.mark.parametrize("spec_name", sorted(CRDT_SPECS))
def test_copy_is_independent(spec_name):
    original = build(spec_name, "r1", [(0, 1)])
    clone = original.copy()
    snapshot = observed(clone)
    _factory, interpreter = CRDT_SPECS[spec_name]
    interpreter(original, (0, 9))
    interpreter(original, (0, 17))
    # The clone must not see mutations applied to the original.
    assert observed(clone) == snapshot
    clone.merge(original)
    assert observed(clone) == observed(original)


# ----------------------------------------------------------------------
# The delta join as a property
# ----------------------------------------------------------------------

set_script_st = st.lists(
    st.tuples(
        st.integers(0, 2),      # replica
        st.integers(0, 3),      # 0-1 add, 2 remove, 3 pull a peer's state
        st.integers(0, 30),
    ),
    max_size=30,
)


def _converge(replicas):
    for _round in range(2):
        for a in replicas:
            for b in replicas:
                if a is not b:
                    a.merge(b.copy())


@given(script=set_script_st, seed=st.integers(0, 2**16))
@settings(max_examples=120, deadline=None)
def test_orset_deltas_join_to_the_converged_state(script, seed):
    """An observer that merges only the emitted deltas — shuffled, each
    delivered twice — ends in the state the replicas converge to, its
    cloud compacted back to prefixes; and a delta merged into its own
    source is a no-op."""
    replicas = [ORSet(r) for r in REPLICAS]
    deltas = []
    for who, kind, arg in script:
        replica = replicas[who]
        if kind == 3:
            replica.merge(replicas[arg % 3].copy())
            continue
        delta = (replica.add if kind < 2 else replica.remove)(f"e{arg % 6}")
        deltas.append(delta)
        snapshot = replica.state()
        replica.merge(delta)
        assert replica.state() == snapshot
    _converge(replicas)
    observer = ORSet("observer")
    deliveries = deltas * 2
    random.Random(seed).shuffle(deliveries)
    for delta in deliveries:
        observer.merge(delta)
    assert observer.value == replicas[0].value
    assert observer.state() == replicas[0].state()
    assert "cloud" not in observer.state()


class _TombstoneORSet:
    """The textbook OR-Set: an add stores ``(element, unique tag)``, a
    remove tombstones the tags of that element its replica has seen,
    merge is union.  ``known`` is the replica's causal history, as the
    ids of the ops in it."""

    def __init__(self):
        self.adds, self.tombs, self.known = set(), set(), set()

    @property
    def value(self):
        return frozenset(e for e, tag in self.adds if tag not in self.tombs)

    def merge(self, other):
        self.adds |= other.adds
        self.tombs |= other.tombs
        self.known |= other.known


model_script_st = st.lists(
    st.tuples(
        st.integers(0, 2),      # replica
        st.integers(0, 4),      # 0 add, 1 re-add, 2 remove (present ones), 3 pull a state, 4 pull deltas
        st.integers(0, 30),
    ),
    max_size=40,
)


@given(script=model_script_st)
# r2 adds, r0 pulls its state, re-adds and removes, r2 pulls r0's
# deltas: the re-add's delta must retire r2's dot, or r2 keeps ``e0``.
@example(script=[(2, 0, 0), (0, 3, 2), (0, 1, 0), (0, 2, 0), (2, 4, 0)])
@settings(max_examples=150, deadline=None)
def test_orset_agrees_with_a_tombstone_or_set(script):
    """After every step of a script of adds, re-adds, removes, full-state
    pulls and delta pulls, every replica's ``value`` is the reference
    model's, and so is the converged value.  A delta pull joins the
    delta of every op in the peer's causal history, in the order they
    were made — causal delivery, as delta-state anti-entropy relays
    them — re-delivering those already joined.  Which dots an element
    keeps is representation; this pins the semantics."""
    replicas = [ORSet(r) for r in REPLICAS]
    models = [_TombstoneORSet() for _ in REPLICAS]
    emitted = {}    # op id -> (its delta, its effect on the model)
    for step, (who, kind, arg) in enumerate(script):
        replica, model, peer = replicas[who], models[who], arg % 3
        if kind < 3:
            present = sorted(replica.value)
            element = present[arg % len(present)] if kind and present else f"e{arg % 4}"
            op = _TombstoneORSet()
            op.known.add(step)
            if kind < 2:
                op.adds.add((element, step))
                emitted[step] = replica.add(element), op
            else:
                op.tombs = {tag for e, tag in model.adds if e == element}
                emitted[step] = replica.remove(element), op
            model.merge(op)
        elif kind == 3:
            replica.merge(replicas[peer].copy())
            model.merge(models[peer])
        else:
            for made in sorted(models[peer].known):
                delta, op = emitted[made]
                replica.merge(delta)
                model.merge(op)
        assert [r.value for r in replicas] == [m.value for m in models]
    _converge(replicas)
    for model in models[1:]:
        models[0].merge(model)
    assert all(r.value == models[0].value for r in replicas)


# ----------------------------------------------------------------------
# The dot-store join against its definition
# ----------------------------------------------------------------------

_NONE = frozenset()


def _has_seen(orset, dot):
    return dot[1] <= orset._prefix.get(dot[0], 0) or dot in orset._cloud


def _join_oracle(ours, theirs):
    """``join``'s docstring, read literally: keep a dot iff both
    hold it live, or its only holder is the side the other has not seen
    it from.  Our elements keep their places; new ones follow in their
    order."""
    joined = {}
    for item in {**ours._dots, **theirs._dots}:
        mine, other = ours._dots.get(item, _NONE), theirs._dots.get(item, _NONE)
        dots = frozenset(
            d for d in mine | other
            if (d in mine and d in other)
            or (d in mine and not _has_seen(theirs, d))
            or (d in other and not _has_seen(ours, d))
        )
        if dots:
            joined[item] = dots
    return joined


def _assert_join_is_the_definition(ours, theirs):
    expected = _join_oracle(ours, theirs)
    join(ours._dots, ours._prefix, ours._cloud,
         theirs._dots, theirs._prefix, theirs._cloud)
    assert ours._dots == expected
    assert list(ours._dots) == list(expected)


join_script_st = st.lists(
    st.tuples(
        st.integers(0, 2),      # replica
        st.integers(0, 5),      # 0-1 add, 2 remove, 3 pull a state, 4 a delta, 5 a delta group
        st.integers(0, 30),
    ),
    max_size=40,
)


def _run_join_script(script):
    """Every pull — a peer's full state, one earlier delta out of order,
    or several joined into a fresh ``ORSet`` — goes through
    ``join`` against the oracle, then through ``merge``.  Returns
    the (cloud on our side, cloud on theirs) combinations it met."""
    replicas = [ORSet(r) for r in REPLICAS]
    deltas, met = [], set()
    for who, kind, arg in script:
        replica = replicas[who]
        if kind < 3:
            deltas.append((replica.add if kind < 2 else replica.remove)(f"e{arg % 6}"))
            continue
        if kind == 3 or not deltas:
            incoming = replicas[arg % 3].copy()
        elif kind == 4:
            incoming = deltas[arg % len(deltas)]
        else:
            incoming = ORSet("group")
            for delta in deltas[arg % len(deltas)::3]:
                incoming.merge(delta)
        met.add((bool(replica._cloud), bool(incoming._cloud)))
        _assert_join_is_the_definition(replica.copy(), incoming)
        replica.merge(incoming)
    return met


@given(script=join_script_st)
@settings(max_examples=150, deadline=None)
def test_orset_join_is_the_definition(script):
    """One join serves full states and deltas: on every pair a script
    produces it leaves the store the definition does, in the element
    order the pinned state digests were recorded in."""
    _run_join_script(script)


def test_orset_join_is_the_definition_under_every_cloud_combination():
    rng = random.Random(23)
    met = set()
    for _ in range(20):
        met |= _run_join_script([
            (rng.randrange(3), rng.randrange(6), rng.randrange(31))
            for _ in range(60)
        ])
    assert met == {(False, False), (False, True), (True, False), (True, True)}


def _hand_built(replica, dots, context):
    orset = ORSet(replica)
    orset._dots = {"x": frozenset(dots)}
    orset._prefix = dict(context)
    return orset


@pytest.mark.parametrize("shared", [0, 50])
@pytest.mark.parametrize("outcome", ["no-op", "adopt", "rebuild"])
def test_orset_join_outcomes(outcome, shared):
    """The three things the join does to an element both sides hold as
    different sets — one differing dot a side, ``shared`` common ones."""
    common = [("s", n + 1) for n in range(shared)]
    a1, b1 = ("a", 1), ("b", 1)
    # no-op: we removed their dot, they never saw ours.  adopt: the
    # reverse.  rebuild: two concurrent adds, both survive.
    ours = _hand_built("a", common + [a1],
                       {"s": shared, "a": 1, "b": int(outcome == "no-op")})
    theirs = _hand_built("b", common + [b1],
                         {"s": shared, "b": 1, "a": int(outcome == "adopt")})
    before = ours._dots["x"]
    _assert_join_is_the_definition(ours, theirs)
    after = ours._dots["x"]
    if outcome == "no-op":
        assert after is before
    elif outcome == "adopt":
        assert after is theirs._dots["x"]
    else:
        assert after == before | theirs._dots["x"]
        assert after is not before and after is not theirs._dots["x"]


def test_orset_join_with_hundreds_of_one_sided_dots():
    """Concurrent adds nobody has seen yet can leave hundreds of dots
    held by one side alone: every branch of the loops (first hit, later
    hits, kept, left) in one element, against the oracle."""
    mine = [("a", n + 1) for n in range(300)]
    theirs = [("b", n + 1) for n in range(200)]
    # They have seen (and removed) all but our last 20; we have seen
    # (and removed) their first 100.
    ours = _hand_built("a", mine, {"a": 300, "b": 100})
    other = _hand_built("b", theirs, {"a": 280, "b": 200})
    _assert_join_is_the_definition(ours, other)
    assert ours._dots["x"] == frozenset(mine[280:] + theirs[100:])


def test_orset_merge_adopts_their_dot_sets():
    """Whatever a merge changes into the sender's set *is* the sender's
    set, so the next exchange skips it on identity; and an exchange
    that brings nothing replaces nothing."""
    a, b = ORSet("a"), ORSet("b")
    for n in range(6):
        a.add(f"e{n}")
    b.merge(a.copy())
    a.add("e0")
    a.remove("e1")
    a.add("e1")
    a.add("new")
    b.add("e2")         # concurrent: b's set stays b's own
    before = dict(b._dots)
    b.merge(snap := a.copy())
    changed = [item for item, dots in b._dots.items() if dots is not before.get(item)]
    assert sorted(changed) == ["e0", "e1", "new"]
    assert all(b._dots[item] is snap._dots[item] for item in changed)
    assert b._dots["e2"] is before["e2"]
    before = dict(b._dots)
    b.merge(a.copy())
    assert list(b._dots) == list(before)
    assert all(b._dots[item] is dots for item, dots in before.items())


def test_orset_merge_of_itself_and_of_its_own_delta_changes_nothing():
    a = ORSet("a")
    for n in range(4):
        a.add(f"e{n % 3}")
    a.remove("e1")
    a.merge(ORSet("b").add("e1"))
    for echo in (lambda: a, lambda: a.add("x")):
        incoming = echo()
        before, state = dict(a._dots), a.state()
        a.merge(incoming)
        assert a.state() == state
        assert all(a._dots[item] is dots for item, dots in before.items())


_STORM = """
import hashlib, json, random
from repro.crdt import ORSet
rng = random.Random(5)
sets = [ORSet(f"r{i}") for i in range(4)]
deltas = []
for _ in range(200):
    crdt, kind = rng.choice(sets), rng.randrange(5)
    if kind < 3:
        deltas.append((crdt.add if kind < 2 else crdt.remove)(f"e{rng.randrange(12)}"))
    elif kind == 3:
        crdt.merge(rng.choice(sets).copy())
    else:
        crdt.merge(rng.choice(deltas))
payload = json.dumps([[s.state(), list(s._dots)] for s in sets], sort_keys=True)
print(hashlib.sha256(payload.encode()).hexdigest())
"""


def test_orset_storm_does_not_depend_on_hash_randomisation():
    """Dot sets are sets of tuples of strings and iterate in hash order;
    no state and no element order may depend on it."""
    def digest(hashseed):
        env = {**os.environ, "PYTHONHASHSEED": hashseed,
               "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run([sys.executable, "-c", _STORM], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr[-2000:]
        return done.stdout.strip()

    first = digest("0")
    assert len(first) == 64 and first == digest("1")


@given(
    increments=st.lists(
        st.tuples(st.integers(0, 2), st.integers(1, 5)), max_size=20
    ),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_gcounter_deltas_join_to_the_state(increments, seed):
    replicas = [GCounter(r) for r in REPLICAS]
    deltas = [replicas[who].increment(amount) for who, amount in increments]
    _converge(replicas)
    observer = GCounter("observer")     # a plain GCounter takes deltas
    deliveries = deltas * 2
    random.Random(seed).shuffle(deliveries)
    for delta in deliveries:
        observer.merge(delta)
    assert observer.state() == replicas[0].state()
    assert observer.value == sum(amount for _who, amount in increments)


def strictly_dominates(clock, other):
    """``clock > other`` pointwise, as version vectors."""
    return clock != other and all(
        clock.get(node, 0) >= count for node, count in other.items())


@given(script=st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 30)),
    max_size=30,
))
@settings(max_examples=120, deadline=None)
def test_mv_register_is_a_dotted_value_set(script):
    """The same assign / merge script through ``MVRegister`` and through
    bare ``DottedValueSet``s reports the same siblings in the same
    order — and those are exactly the maximal writes the replica has
    seen, by the pairwise vector-clock reduction kept here as the
    oracle."""
    registers = [MVRegister(r) for r in REPLICAS]
    bare = [DottedValueSet() for _ in REPLICAS]
    writes = []     # (replica, counter, the write's version vector, value)
    for who, kind, arg in script:
        if kind < 2:
            value = f"v{len(writes)}"
            registers[who].assign(value)
            bare[who] = bare[who].put(REPLICAS[who], value, bare[who].clock)
            replica, counter = list(bare[who].siblings)[-1]
            writes.append((replica, counter, dict(bare[who].clock), value))
        elif arg % 3 != who:
            registers[who].merge(registers[arg % 3].copy())
            bare[who] = bare[who].sync(bare[arg % 3])
        assert registers[who].values == bare[who].values()
        seen = [
            (clock, value) for replica, counter, clock, value in writes
            if bare[who].clock.get(replica, 0) >= counter
        ]
        maximal = [
            value for clock, value in seen
            if not any(strictly_dominates(other, clock) for other, _ in seen)
        ]
        assert sorted(registers[who].values) == sorted(maximal)
    _converge(registers)
    assert len({tuple(r.values) for r in registers}) == 1
    everything = bare[0].sync(bare[1]).sync(bare[2])
    assert registers[0].values == everything.values()
