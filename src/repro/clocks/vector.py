"""Causal broadcast on version vectors.

A version vector here is a plain dict, replica → how many of its ops
have been seen: a causal context of the dot kernel
(:mod:`repro.clocks.dvv`) whose cloud is empty.  An op stamped with
its origin's vector ``s`` is the dot ``(origin, s[origin])``, and it
had seen exactly the dots ``s`` covers.  Reliable causal broadcast —
every op applied exactly once, after every op it had seen — is what
the op-based CRDTs and the causal store need from the network, and
:class:`CausalBuffer` gives it: it drops duplicates, delivers in
causal order and holds back an op that arrives early.

Nothing writes an envelope's clock once it is stamped: the buffer
ticks its own dict in place and ships a copy.

>>> seen = []
>>> a = CausalBuffer("a", lambda envelope: None)
>>> b = CausalBuffer("b", lambda envelope: seen.append(envelope.payload))
>>> first, second = a.stamp_local("x"), a.stamp_local("y")
>>> b.receive(second)                     # early: it waits for "x"
>>> b.receive(first); b.receive(first)    # the replay is dropped
>>> seen, b.clock, first.clock
(['x', 'y'], {'a': 2}, {'a': 1})
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable, Mapping


def delivery(
    ours: Mapping[Hashable, int], stamp: Mapping[Hashable, int], origin: Hashable
) -> bool | None:
    """Causal-broadcast delivery of an op stamped ``stamp`` at
    ``origin``, read against the receiver's clock ``ours`` in one pass:
    ``None`` when already delivered, ``True`` when it is ``origin``'s
    next op and every dependency is delivered (then ticking ``ours`` at
    ``origin`` is the join with ``stamp``), ``False`` when it must wait."""
    mine, count = ours.get(origin, 0), stamp.get(origin, 0)
    if count <= mine:
        return None
    if count != mine + 1:
        return False
    for node, seen in stamp.items():
        if seen > ours.get(node, 0) and node != origin:
            return False
    return True


@dataclass(frozen=True)
class OpEnvelope:
    """A broadcast operation, stamped for causal delivery.

    ``clock`` is the sender's version vector *after* ticking for this
    op, so the op's own slot is ``clock[origin]``.
    """

    origin: Hashable
    clock: dict[Hashable, int]
    payload: Any


class CausalBuffer:
    """Per-replica causal delivery: dedup, order, hold back early ops.

    ``receive`` is called with every received envelope (duplicates and
    reordering allowed); ``apply`` fires exactly once per op, in causal
    order.
    """

    def __init__(self, replica_id: Hashable, apply: Callable[[OpEnvelope], None]):
        self.replica_id = replica_id
        self.apply = apply
        self.clock: dict[Hashable, int] = {}
        self._pending: list[OpEnvelope] = []

    def stamp_local(self, payload: Any) -> OpEnvelope:
        """Stamp (and locally apply) an op originated at this replica."""
        clock, me = self.clock, self.replica_id
        clock[me] = clock.get(me, 0) + 1
        envelope = OpEnvelope(me, dict(clock), payload)
        self.apply(envelope)
        return envelope

    def receive(self, envelope: OpEnvelope) -> None:
        """Accept a (possibly duplicate / early) envelope from the network."""
        ready = delivery(self.clock, envelope.clock, envelope.origin)
        if ready:
            self._deliver(envelope)
            if self._pending:
                self._drain()
        elif ready is not None:
            self._pending.append(envelope)

    def _deliver(self, envelope: OpEnvelope) -> None:
        # Only ever called for a deliverable envelope: its clock is at
        # most ours except at its origin, one ahead, so the tick is the join.
        origin = envelope.origin
        self.clock[origin] = envelope.clock[origin]
        self.apply(envelope)

    def _drain(self) -> None:
        """Deliver held-back envelopes, in queue order, until a pass
        delivers none; drop the ones that turn out duplicates."""
        delivered = True
        while delivered:
            delivered, waiting = False, []
            for envelope in self._pending:
                ready = delivery(self.clock, envelope.clock, envelope.origin)
                if ready:
                    self._deliver(envelope)
                    delivered = True
                elif ready is not None:
                    waiting.append(envelope)
            self._pending = waiting

    @property
    def pending_count(self) -> int:
        return len(self._pending)
