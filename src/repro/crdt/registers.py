"""Register CRDTs: last-writer-wins and multi-value.

Registers are where the taxonomy's conflict-handling choices are most
visible: LWW silently *loses* one of two concurrent writes (cheap,
lossy); the MV-register keeps both as siblings (lossless, pushes
resolution to the reader) — the same design fork as the quorum
engine's ``LWWStamps`` vs ``DottedSiblings`` conflict strategies
(:mod:`repro.replication.quorum`), but packaged as mergeable values.
The MV-register is a :class:`~repro.clocks.dvv.DottedValueSet`: a dot →
value map under one causal context, merged by the dot-store join that
``ORSet`` runs too.
"""

from __future__ import annotations

from typing import Any, Hashable

from ..clocks.dvv import DottedValueSet
from ..clocks.lamport import LamportStamp
from .base import StateCRDT


class LWWRegister(StateCRDT):
    """Last-writer-wins register with an internal Lamport stamp.

    ``assign`` stamps the write one past the largest stamp this replica
    has *seen* (locally or via merge), so a replica that merges remote
    state and then writes always wins over what it saw.

    >>> a, b = LWWRegister("a"), LWWRegister("b")
    >>> a.assign("x"); b.assign("y")
    >>> _ = a.merge(b); _ = b.merge(a.copy())
    >>> a.value == b.value  # converged; one write lost by arbitration
    True
    """

    def __init__(self, replica_id: Hashable) -> None:
        self.replica_id = replica_id
        self._stamp: LamportStamp | None = None
        self._value: Any = None
        self._seen = 0  # highest counter observed anywhere

    def assign(self, value: Any) -> None:
        self._seen += 1
        self._stamp = LamportStamp(self._seen, self.replica_id)
        self._value = value

    @property
    def value(self) -> Any:
        return self._value

    @property
    def stamp(self) -> LamportStamp | None:
        return self._stamp

    def merge(self, other: "LWWRegister") -> "LWWRegister":
        self._require_same_type(other)
        if other._stamp is not None:
            self._seen = max(self._seen, other._stamp.counter)
            if self._stamp is None or other._stamp > self._stamp:
                self._stamp = other._stamp
                self._value = other._value
        return self

    def copy(self) -> "LWWRegister":
        clone = self._blank_copy()
        # LamportStamp is immutable, so the stamp itself is shared.
        clone._stamp = self._stamp
        clone._value = self._value
        clone._seen = self._seen
        return clone

    def state(self) -> dict:
        stamp = None
        if self._stamp is not None:
            stamp = (self._stamp.counter, self._stamp.node)
        return {"stamp": stamp, "value": self._value}


class MVRegister(StateCRDT):
    """Multi-value register: concurrent assigns become siblings.

    The CRDT face of :class:`~repro.clocks.dvv.DottedValueSet`, the same
    sibling set the quorum engine keeps per key: ``assign`` is a write
    whose causal context is everything this replica has seen, so it
    supersedes every sibling held here; ``merge`` is replica sync.
    ``values`` returns all current siblings.

    >>> a, b = MVRegister("a"), MVRegister("b")
    >>> a.assign("x"); b.assign("y")
    >>> _ = a.merge(b)
    >>> sorted(a.values)
    ['x', 'y']
    >>> a.assign("z")   # read-repair: saw both, supersedes both
    >>> a.values
    ['z']
    """

    def __init__(self, replica_id: Hashable) -> None:
        self.replica_id = replica_id
        self._siblings = DottedValueSet()

    def assign(self, value: Any) -> None:
        siblings = self._siblings
        self._siblings = siblings.put(self.replica_id, value, siblings.clock)

    @property
    def values(self) -> list[Any]:
        """Sibling values in dot order (``sync``'s canonical order), so
        two converged replicas report identical lists."""
        return self._siblings.values()

    @property
    def value(self) -> Any:
        """Single value if unambiguous, else the sibling list."""
        values = self.values
        if len(values) > 1:
            return values
        return values[0] if values else None

    def merge(self, other: "MVRegister") -> "MVRegister":
        self._require_same_type(other)
        self._siblings = self._siblings.sync(other._siblings)
        return self

    def copy(self) -> "MVRegister":
        clone = self._blank_copy()
        # DottedValueSet has value semantics (put/sync return new sets).
        clone._siblings = self._siblings
        return clone

    def state(self) -> dict:
        siblings = self._siblings
        return {
            "siblings": list(siblings.siblings.items()),
            "context": dict(siblings.clock),
        }
