"""Op-based (commutative) CRDTs and the causal delivery they require.

Where state-based CRDTs ship whole states and need only eventual
pairwise contact, op-based CRDTs ship small operations but demand a
**reliable causal broadcast**: every op delivered exactly once, after
the ops that causally precede it.  :class:`CausalBuffer` implements
that delivery discipline with vector clocks (dedup + causal hold-back
queue), and the op-based OR-Set here shows why it is needed: a
``remove`` must not arrive before the ``add`` it observed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable

from ..clocks import VectorClock


@dataclass(frozen=True)
class OpEnvelope:
    """A broadcast operation, stamped for causal delivery.

    ``clock`` is the sender's vector clock *after* ticking for this op,
    so the op's own slot is ``clock[origin]``.
    """

    origin: Hashable
    clock: VectorClock
    payload: Any


class CausalBuffer:
    """Per-replica causal delivery: dedup, order, hold back early ops.

    ``deliver`` is called with every received envelope (duplicates and
    reordering allowed); ``apply`` fires exactly once per op, in causal
    order.
    """

    def __init__(self, replica_id: Hashable, apply: Callable[[OpEnvelope], None]):
        self.replica_id = replica_id
        self.apply = apply
        self.clock = VectorClock({})
        self._pending: list[OpEnvelope] = []
        self.delivered = 0
        self.duplicates = 0
        self.held_back = 0

    def stamp_local(self, payload: Any) -> OpEnvelope:
        """Stamp (and locally apply) an op originated at this replica."""
        self.clock = self.clock.tick(self.replica_id)
        envelope = OpEnvelope(self.replica_id, self.clock, payload)
        self.apply(envelope)
        self.delivered += 1
        return envelope

    def receive(self, envelope: OpEnvelope) -> None:
        """Accept a (possibly duplicate / early) envelope from the network."""
        ready = self.clock.delivery(envelope.clock, envelope.origin)
        if ready is None:
            self.duplicates += 1
        elif ready:
            self._deliver(envelope)
            if self._pending:
                self._drain()
        else:
            self.held_back += 1
            self._pending.append(envelope)

    def _deliver(self, envelope: OpEnvelope) -> None:
        # Only ever called for a deliverable envelope: its clock is at
        # most ours except at its origin, one ahead, so the tick is the merge.
        self.clock = self.clock.tick(envelope.origin)
        self.apply(envelope)
        self.delivered += 1

    def _drain(self) -> None:
        """Deliver held-back envelopes, in queue order, until a pass
        delivers none; drop the ones that turn out duplicates."""
        delivered = True
        while delivered:
            delivered, waiting = False, []
            for envelope in self._pending:
                ready = self.clock.delivery(envelope.clock, envelope.origin)
                if ready is None:
                    self.duplicates += 1
                elif ready:
                    self._deliver(envelope)
                    delivered = True
                else:
                    waiting.append(envelope)
            self._pending = waiting

    @property
    def pending_count(self) -> int:
        return len(self._pending)


class OpORSet:
    """Op-based observed-remove set.

    Ops carry unique tags: ``("add", element, (tag, replaced))`` and
    ``("remove", element, frozenset_of_tags)``.  An add retires the
    element's tags its origin had observed (Almeida's δ-ORSet add), so
    an element re-added N times holds one tag.  With causal delivery an
    add or remove always follows the adds it observed, so applying ops
    in delivery order is enough; concurrent adds survive (add-wins).
    """

    def __init__(self, replica_id: Hashable) -> None:
        self.replica_id = replica_id
        self.buffer = CausalBuffer(replica_id, self._apply)
        self._tags: dict[Any, set] = {}
        self._op_counter = 0

    # -- local operations ------------------------------------------------
    def add(self, element: Any) -> OpEnvelope:
        self._op_counter += 1
        tag = (self.replica_id, self._op_counter)
        replaced = frozenset(self._tags.get(element, ()))
        return self.buffer.stamp_local(("add", element, (tag, replaced)))

    def remove(self, element: Any) -> OpEnvelope:
        observed = frozenset(self._tags.get(element, ()))
        return self.buffer.stamp_local(("remove", element, observed))

    def receive(self, envelope: OpEnvelope) -> None:
        self.buffer.receive(envelope)

    # -- op application ---------------------------------------------------
    def _apply(self, envelope: OpEnvelope) -> None:
        kind, element, detail = envelope.payload
        if kind == "add":
            tag, replaced = detail
            live = self._tags.setdefault(element, set())
            live -= replaced
            live.add(tag)
        else:
            live = self._tags.get(element)
            if live is not None:
                live -= detail
                if not live:
                    del self._tags[element]

    # -- queries -----------------------------------------------------------
    def __contains__(self, element: Any) -> bool:
        return element in self._tags

    @property
    def value(self) -> frozenset:
        return frozenset(self._tags)

    def __len__(self) -> int:
        return len(self._tags)
