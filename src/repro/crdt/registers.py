"""Register CRDTs: last-writer-wins and multi-value.

Registers are where the taxonomy's conflict-handling choices are most
visible: LWW silently *loses* one of two concurrent writes (cheap,
lossy); the MV-register keeps both as siblings (lossless, pushes
resolution to the reader) — the same design fork as the quorum
engine's ``LWWStamps`` vs ``DottedSiblings`` conflict strategies
(:mod:`repro.replication.quorum`), but packaged as mergeable values.
"""

from __future__ import annotations

from typing import Any, Hashable

from ..clocks import Ordering, VectorClock
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

    ``values`` returns all current siblings; ``assign`` supersedes every
    sibling this replica has seen (its clock dominates their join).

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
        self._siblings: list[tuple[VectorClock, Any]] = []

    def assign(self, value: Any) -> None:
        ceiling = VectorClock()
        for clock, _ in self._siblings:
            ceiling = ceiling.merge(clock)
        self._siblings = [(ceiling.tick(self.replica_id), value)]

    @staticmethod
    def _canonical_key(entry: tuple[VectorClock, Any]) -> str:
        clock, _value = entry
        return repr(sorted(clock.entries().items(), key=lambda kv: str(kv[0])))

    @property
    def values(self) -> list[Any]:
        """Sibling values in a canonical (clock-derived) order, so two
        converged replicas report identical lists."""
        return [
            value
            for _, value in sorted(self._siblings, key=self._canonical_key)
        ]

    @property
    def value(self) -> Any:
        """Single value if unambiguous, else the sibling list."""
        if not self._siblings:
            return None
        if len(self._siblings) == 1:
            return self._siblings[0][1]
        return self.values

    def merge(self, other: "MVRegister") -> "MVRegister":
        self._require_same_type(other)
        combined = list(self._siblings)
        for clock, value in other._siblings:
            dominated = False
            survivors: list[tuple[VectorClock, Any]] = []
            duplicate = False
            for kept_clock, kept_value in combined:
                cmp = clock.compare(kept_clock)
                if cmp is Ordering.BEFORE:
                    dominated = True
                    survivors.append((kept_clock, kept_value))
                elif cmp is Ordering.EQUAL:
                    duplicate = True
                    survivors.append((kept_clock, kept_value))
                elif cmp is Ordering.AFTER:
                    continue  # incoming supersedes this sibling
                else:
                    survivors.append((kept_clock, kept_value))
            combined = survivors
            if not dominated and not duplicate:
                combined.append((clock, value))
        self._siblings = combined
        return self

    def copy(self) -> "MVRegister":
        clone = self._blank_copy()
        # VectorClock is immutable (tick/merge return new instances),
        # so sharing the (clock, value) tuples is safe.
        clone._siblings = list(self._siblings)
        return clone

    def state(self) -> list:
        return [(clock.entries(), value) for clock, value in self._siblings]
