"""Tests for op-based CRDTs and the causal delivery buffer."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocks import CausalBuffer, OpEnvelope
from repro.crdt import OpORSet


def broadcast(source, targets, envelope):
    for target in targets:
        if target is not source:
            target.receive(envelope)


# ----------------------------------------------------------------------
# CausalBuffer
# ----------------------------------------------------------------------

def test_buffer_delivers_in_order():
    log = []
    sender = CausalBuffer("s", lambda e: None)
    receiver = CausalBuffer("r", lambda e: log.append(e.payload))
    e1 = sender.stamp_local("one")
    e2 = sender.stamp_local("two")
    receiver.receive(e1)
    receiver.receive(e2)
    assert log == ["one", "two"]
    assert receiver.clock == {"s": 2} and receiver.pending_count == 0


def test_buffer_holds_back_early_op():
    log = []
    sender = CausalBuffer("s", lambda e: None)
    receiver = CausalBuffer("r", lambda e: log.append(e.payload))
    e1 = sender.stamp_local("one")
    e2 = sender.stamp_local("two")
    receiver.receive(e2)  # arrives first
    assert log == []
    assert receiver.pending_count == 1
    receiver.receive(e1)
    assert log == ["one", "two"]
    assert receiver.pending_count == 0


def test_buffer_deduplicates():
    log = []
    sender = CausalBuffer("s", lambda e: None)
    receiver = CausalBuffer("r", lambda e: log.append(e.payload))
    e1 = sender.stamp_local("x")
    receiver.receive(e1)
    receiver.receive(e1)
    receiver.receive(e1)
    assert log == ["x"]
    assert receiver.clock == {"s": 1} and receiver.pending_count == 0


def test_buffer_transitive_causality():
    # b's op depends on a's op; c receives b's first and must wait.
    log = []
    a = CausalBuffer("a", lambda e: None)
    b = CausalBuffer("b", lambda e: None)
    c = CausalBuffer("c", lambda e: log.append(e.payload))
    ea = a.stamp_local("from-a")
    b.receive(ea)
    eb = b.stamp_local("from-b")  # causally after ea
    c.receive(eb)
    assert log == []  # held: depends on ea
    c.receive(ea)
    assert log == ["from-a", "from-b"]


def test_buffer_duplicate_in_pending_queue_dropped():
    log = []
    sender = CausalBuffer("s", lambda e: None)
    receiver = CausalBuffer("r", lambda e: log.append(e.payload))
    e1 = sender.stamp_local("one")
    e2 = sender.stamp_local("two")
    receiver.receive(e2)
    receiver.receive(e2)  # duplicate while pending
    receiver.receive(e1)
    assert log == ["one", "two"]
    assert receiver.pending_count == 0


def test_envelope_clock_is_a_snapshot():
    """Nothing writes an envelope's clock: the sender ships a copy of the
    clock it ticks in place, and a receiver ticks its own."""
    sender = CausalBuffer("s", lambda e: None)
    receiver = CausalBuffer("r", lambda e: None)
    e1 = sender.stamp_local("one")
    receiver.receive(e1)
    e2 = receiver.stamp_local("two")
    sender.receive(e2)
    sender.stamp_local("three")
    assert e1.clock == {"s": 1} and e2.clock == {"s": 1, "r": 1}
    assert sender.clock == {"s": 2, "r": 1}
    assert receiver.clock == {"s": 1, "r": 1}


def _ticked(clock, node):
    ticked = dict(clock)
    ticked[node] = ticked.get(node, 0) + 1
    return ticked


def _joined(clock, other):
    """Pointwise max, keys in ``clock``'s order then ``other``'s."""
    joined = dict(clock)
    for node, count in other.items():
        if count > joined.get(node, 0):
            joined[node] = count
    return joined


class ReferenceBuffer:
    """The delivery rule read entry by entry, with the pointwise max as
    the join: the oracle :class:`CausalBuffer` must match.  It also
    checks, for every envelope it delivers, that the join is the
    receiver's clock ticked at the envelope's origin."""

    def __init__(self, replica_id):
        self.replica_id = replica_id
        self.log = []
        self.clock = {}
        self.pending = []

    def stamp_local(self, payload):
        self.clock = _ticked(self.clock, self.replica_id)
        self.log.append(payload)
        return OpEnvelope(self.replica_id, self.clock, payload)

    def receive(self, envelope):
        if self._already_seen(envelope):
            return
        if self._deliverable(envelope):
            self._deliver(envelope)
            self._drain()
        else:
            self.pending.append(envelope)

    def _already_seen(self, envelope):
        origin = envelope.origin
        return self.clock.get(origin, 0) >= envelope.clock.get(origin, 0)

    def _deliverable(self, envelope):
        origin = envelope.origin
        if envelope.clock.get(origin, 0) != self.clock.get(origin, 0) + 1:
            return False
        return all(count <= self.clock.get(node, 0)
                   for node, count in envelope.clock.items() if node != origin)

    def _deliver(self, envelope):
        joined = _joined(self.clock, envelope.clock)
        ticked = _ticked(self.clock, envelope.origin)
        assert joined == ticked and list(joined) == list(ticked)
        self.clock = joined
        self.log.append(envelope.payload)

    def _drain(self):
        progressed = True
        while progressed:
            progressed = False
            for envelope in list(self.pending):
                if self._already_seen(envelope):
                    self.pending.remove(envelope)
                    progressed = True
                elif self._deliverable(envelope):
                    self.pending.remove(envelope)
                    self._deliver(envelope)
                    progressed = True


@given(
    replicas=st.integers(3, 5),
    steps=st.lists(
        st.tuples(
            st.sampled_from(["stamp", "deliver", "replay"]),
            st.integers(0, 4),            # acting / receiving replica
            st.integers(0, 2**16),        # which envelope
        ),
        max_size=60,
    ),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=150, deadline=None)
def test_buffer_agrees_with_the_mapping_rule(replicas, steps, seed):
    """Stamps interleaved with shuffled, duplicated and replayed
    deliveries: every replica applies the same ops in the same order,
    and ends with the same clock (key order too) and as many held-back
    envelopes as the reference rule; no envelope's clock is written
    after it ships."""
    rng = random.Random(seed)
    logs = [[] for _ in range(replicas)]
    buffers = [CausalBuffer(i, lambda e, log=log: log.append(e.payload))
               for i, log in enumerate(logs)]
    references = [ReferenceBuffer(i) for i in range(replicas)]
    stamped, in_flight = [], []      # envelopes; (receiver, envelope)
    copies = []                      # each stamped envelope's clock, as shipped

    def check():
        for buffer, reference, log in zip(buffers, references, logs):
            assert log == reference.log
            assert buffer.clock == reference.clock
            assert list(buffer.clock) == list(reference.clock)
            assert buffer.pending_count == len(reference.pending)

    def receive(target, envelope):
        buffers[target].receive(envelope)
        references[target].receive(envelope)

    for kind, actor, pick in steps:
        actor %= replicas
        if kind == "stamp":
            payload = (actor, len(stamped))
            envelope = buffers[actor].stamp_local(payload)
            assert references[actor].stamp_local(payload) == envelope
            stamped.append(envelope)
            copies.append(dict(envelope.clock))
            for target in range(replicas):
                if target != actor:
                    in_flight += [(target, envelope)] * rng.choice((1, 1, 2))
        elif kind == "deliver" and in_flight:
            receive(*in_flight.pop(pick % len(in_flight)))
        elif kind == "replay" and stamped:
            receive(actor, stamped[pick % len(stamped)])
        check()
    rng.shuffle(in_flight)
    for target, envelope in in_flight:
        receive(target, envelope)
        check()
    assert all(buffer.pending_count == 0 for buffer in buffers)
    assert [envelope.clock for envelope in stamped] == copies


# ----------------------------------------------------------------------
# OpORSet
# ----------------------------------------------------------------------

def test_op_orset_add_then_remove():
    a, b = OpORSet("a"), OpORSet("b")
    nodes = [a, b]
    broadcast(a, nodes, a.add("x"))
    assert "x" in b
    broadcast(b, nodes, b.remove("x"))
    assert "x" not in a and "x" not in b


def test_op_orset_remove_reordered_before_add_still_correct():
    a, b = OpORSet("a"), OpORSet("b")
    e_add = a.add("x")
    # a removes its own add; remove causally follows the add.
    e_rem = a.remove("x")
    b.receive(e_rem)  # arrives first; must be held back
    assert "x" not in b and b.buffer.pending_count == 1
    b.receive(e_add)
    assert "x" not in b
    assert b.buffer.pending_count == 0


def test_op_orset_concurrent_add_wins():
    a, b = OpORSet("a"), OpORSet("b")
    e_add_a = a.add("x")
    b.receive(e_add_a)
    e_rem = b.remove("x")       # saw only a's first add
    e_add2 = a.add("x")         # concurrent second add
    a.receive(e_rem)
    b.receive(e_add2)
    assert "x" in a and "x" in b
    assert a.value == b.value == frozenset({"x"})


def test_op_orset_readd_keeps_one_tag():
    """An add drops the dots its envelope's clock covers, so an element
    re-added N times holds one dot, the last add's; a concurrent add's
    dot is not covered and stays."""
    for readds in (3, 16_000):
        a, b = OpORSet("a"), OpORSet("b")
        for _ in range(readds):
            b.receive(a.add("x"))
        assert a._dots == b._dots == {"x": {("a", readds)}}
    concurrent = b.add("x")
    b.receive(a.add("x"))
    a.receive(concurrent)
    assert a._dots == b._dots == {"x": {("a", 16_001), ("b", 1)}}


def test_op_orset_ships_only_the_op():
    a = OpORSet("a")
    a.add("x")
    envelope = a.remove("x")
    assert envelope.payload == ("remove", "x")
    assert envelope.clock == {"a": 2}


class TaggedORSet:
    """The op-based OR-Set that ships its own identity, kept as the
    reference: an add mints a ``(replica, counter)`` tag and carries the
    tags it replaces, a remove carries the tags it observed."""

    def __init__(self, replica_id):
        self.replica_id = replica_id
        self.buffer = CausalBuffer(replica_id, self._apply)
        self.tags = {}
        self._counter = 0

    def add(self, element):
        self._counter += 1
        tag = (self.replica_id, self._counter)
        replaced = frozenset(self.tags.get(element, ()))
        return self.buffer.stamp_local(("add", element, (tag, replaced)))

    def remove(self, element):
        observed = frozenset(self.tags.get(element, ()))
        return self.buffer.stamp_local(("remove", element, observed))

    def receive(self, envelope):
        self.buffer.receive(envelope)

    def _apply(self, envelope):
        kind, element, detail = envelope.payload
        if kind == "add":
            tag, replaced = detail
            live = self.tags.setdefault(element, set())
            live -= replaced
            live.add(tag)
        else:
            live = self.tags.get(element)
            if live is not None:
                live -= detail
                if not live:
                    del self.tags[element]


@given(
    steps=st.lists(
        st.tuples(
            st.sampled_from(["add", "remove", "deliver", "replay"]),
            st.integers(0, 2),            # acting / receiving replica
            st.integers(0, 2**16),        # element, or which envelope
        ),
        max_size=60,
    ),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=150, deadline=None)
def test_op_orset_agrees_with_a_tag_shipping_reference(steps, seed):
    """The same ops on the pure set and on the tag-shipping reference,
    delivered in the same random causal interleaving with duplicates and
    replays: after every step each replica holds the same elements, each
    with as many dots as the reference holds tags."""
    rng = random.Random(seed)
    pure = [OpORSet(i) for i in range(3)]
    tagged = [TaggedORSet(i) for i in range(3)]
    stamped, in_flight = [], []      # (pure, tagged) envelope pairs; (receiver, pair)

    def receive(target, pair):
        pure[target].receive(pair[0])
        tagged[target].receive(pair[1])

    for kind, actor, pick in steps:
        if kind in ("add", "remove"):
            element = f"e{pick % 5}"
            pair = (getattr(pure[actor], kind)(element),
                    getattr(tagged[actor], kind)(element))
            stamped.append(pair)
            for target in range(3):
                if target != actor:
                    in_flight += [(target, pair)] * rng.choice((1, 1, 2))
        elif kind == "deliver" and in_flight:
            receive(*in_flight.pop(pick % len(in_flight)))
        elif kind == "replay" and stamped:
            receive(actor, stamped[pick % len(stamped)])
        for mine, theirs in zip(pure, tagged):
            assert {e: len(d) for e, d in mine._dots.items()} == {
                e: len(t) for e, t in theirs.tags.items()}
    rng.shuffle(in_flight)
    for target, pair in in_flight:
        receive(target, pair)
    assert len({replica.value for replica in pure}) == 1
    assert all(r.buffer.pending_count == 0 for r in pure)


@given(
    script=st.lists(
        st.tuples(
            st.integers(0, 2),            # acting replica
            st.integers(0, 1),            # 0=add 1=remove
            st.integers(0, 4),            # element
        ),
        max_size=24,
    ),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_op_orset_converges_under_random_delivery(script, seed):
    """Ops broadcast with random per-receiver delays/duplication still
    converge once everything is delivered (causal buffer reorders)."""
    rng = random.Random(seed)
    replicas = [OpORSet(f"r{i}") for i in range(3)]
    in_flight = []  # (receiver_index, envelope)
    for actor, kind, element in script:
        replica = replicas[actor]
        envelope = (
            replica.add(f"e{element}")
            if kind == 0
            else replica.remove(f"e{element}")
        )
        for i, other in enumerate(replicas):
            if i != actor:
                in_flight.append((i, envelope))
                if rng.random() < 0.3:  # duplicate delivery
                    in_flight.append((i, envelope))
    rng.shuffle(in_flight)
    for receiver_index, envelope in in_flight:
        replicas[receiver_index].receive(envelope)
    values = {replica.value for replica in replicas}
    assert len(values) == 1
    assert all(r.buffer.pending_count == 0 for r in replicas)
