"""Tests for op-based CRDTs and the causal delivery buffer."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocks import VectorClock
from repro.crdt import CausalBuffer, OpEnvelope, OpORSet


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
    assert receiver.delivered == 2


def test_buffer_holds_back_early_op():
    log = []
    sender = CausalBuffer("s", lambda e: None)
    receiver = CausalBuffer("r", lambda e: log.append(e.payload))
    e1 = sender.stamp_local("one")
    e2 = sender.stamp_local("two")
    receiver.receive(e2)  # arrives first
    assert log == []
    assert receiver.pending_count == 1
    assert receiver.held_back == 1
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
    assert receiver.duplicates == 2


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


class ReferenceBuffer:
    """The delivery rule read through the Mapping protocol, with
    ``merge`` as the join: the oracle :class:`CausalBuffer` must match.
    It also checks, for every envelope it delivers, that the merge is
    the receiver's clock ticked at the envelope's origin."""

    def __init__(self, replica_id):
        self.replica_id = replica_id
        self.log = []
        self.clock = VectorClock({})
        self.pending = []
        self.delivered = self.duplicates = self.held_back = 0

    def stamp_local(self, payload):
        self.clock = self.clock.tick(self.replica_id)
        self.log.append(payload)
        self.delivered += 1
        return OpEnvelope(self.replica_id, self.clock, payload)

    def receive(self, envelope):
        if self._already_seen(envelope):
            self.duplicates += 1
        elif self._deliverable(envelope):
            self._deliver(envelope)
            self._drain()
        else:
            self.held_back += 1
            self.pending.append(envelope)

    def _already_seen(self, envelope):
        return self.clock[envelope.origin] >= envelope.clock[envelope.origin]

    def _deliverable(self, envelope):
        if envelope.clock[envelope.origin] != self.clock[envelope.origin] + 1:
            return False
        return all(envelope.clock[node] <= self.clock[node]
                   for node in envelope.clock if node != envelope.origin)

    def _deliver(self, envelope):
        merged = self.clock.merge(envelope.clock)
        ticked = self.clock.tick(envelope.origin)
        assert merged == ticked and list(merged) == list(ticked)
        self.clock = merged
        self.log.append(envelope.payload)
        self.delivered += 1

    def _drain(self):
        progressed = True
        while progressed:
            progressed = False
            for envelope in list(self.pending):
                if self._already_seen(envelope):
                    self.pending.remove(envelope)
                    self.duplicates += 1
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
    and ends with the same clock (key order too) and counters, as the
    reference rule."""
    rng = random.Random(seed)
    logs = [[] for _ in range(replicas)]
    buffers = [CausalBuffer(i, lambda e, log=log: log.append(e.payload))
               for i, log in enumerate(logs)]
    references = [ReferenceBuffer(i) for i in range(replicas)]
    stamped, in_flight = [], []      # envelopes; (receiver, envelope)

    def check():
        for buffer, reference, log in zip(buffers, references, logs):
            assert log == reference.log
            assert buffer.clock == reference.clock
            assert list(buffer.clock) == list(reference.clock)
            assert (buffer.delivered, buffer.duplicates, buffer.held_back,
                    buffer.pending_count) == (
                reference.delivered, reference.duplicates,
                reference.held_back, len(reference.pending))

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
    """The δ-ORSet add: a re-add ships the tags it replaces and every
    replica that applies it retires them, so an element re-added N times
    holds one tag; a concurrent add's tag is not among them."""
    for readds in (3, 16_000):
        a, b = OpORSet("a"), OpORSet("b")
        for _ in range(readds):
            b.receive(a.add("x"))
        assert a._tags == b._tags == {"x": {("a", readds)}}
    concurrent = b.add("x")
    b.receive(a.add("x"))
    a.receive(concurrent)
    assert a._tags == b._tags == {"x": {("a", 16_001), ("b", 1)}}


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
