"""Counter CRDTs: G-Counter and PN-Counter.

The counter is the tutorial's canonical "commutative update" example:
increments from different replicas commute, so no coordination is
needed — the CRDT just has to avoid double-counting when states meet
repeatedly, which per-replica entries + pointwise max achieve.
"""

from __future__ import annotations

from typing import Hashable

from .base import StateCRDT


class GCounter(StateCRDT):
    """Grow-only counter.  ``increment`` returns its **delta** — a
    ``GCounter`` holding just this replica's new entry — which a peer
    merges like any full state (ship it instead of ``copy()``, or join
    several into a fresh ``GCounter`` and ship that).

    >>> a, b = GCounter("a"), GCounter("b")
    >>> _ = a.increment(3)
    >>> delta = b.increment(2)
    >>> _ = a.merge(delta)
    >>> a.value
    5
    """

    def __init__(self, replica_id: Hashable) -> None:
        self.replica_id = replica_id
        self._counts: dict[Hashable, int] = {}

    def increment(self, amount: int = 1) -> "GCounter":
        """Add ``amount`` (must be positive) to this replica's entry;
        returns the delta."""
        if amount <= 0:
            raise ValueError("GCounter can only grow; use PNCounter to decrement")
        me = self.replica_id
        self._counts[me] = count = self._counts.get(me, 0) + amount
        delta = self._blank_copy()
        delta._counts = {me: count}
        return delta

    @property
    def value(self) -> int:
        return sum(self._counts.values())

    def merge(self, other: "GCounter") -> "GCounter":
        self._require_same_type(other)
        for replica, count in other._counts.items():
            if count > self._counts.get(replica, 0):
                self._counts[replica] = count
        return self

    def copy(self) -> "GCounter":
        clone = self._blank_copy()
        clone._counts = dict(self._counts)
        return clone

    def state(self) -> dict:
        return dict(self._counts)

    @classmethod
    def from_state(cls, replica_id: Hashable, state: dict) -> "GCounter":
        counter = cls(replica_id)
        counter._counts = dict(state)
        return counter


class PNCounter(StateCRDT):
    """Increment/decrement counter: two G-Counters (P and N).

    >>> a = PNCounter("a")
    >>> a.increment(10); a.decrement(4)
    >>> a.value
    6
    """

    def __init__(self, replica_id: Hashable) -> None:
        self.replica_id = replica_id
        self._p = GCounter(replica_id)
        self._n = GCounter(replica_id)

    def increment(self, amount: int = 1) -> None:
        self._p.increment(amount)

    def decrement(self, amount: int) -> None:
        self._n.increment(amount)

    @property
    def value(self) -> int:
        return self._p.value - self._n.value

    def merge(self, other: "PNCounter") -> "PNCounter":
        self._require_same_type(other)
        self._p.merge(other._p)
        self._n.merge(other._n)
        return self

    def copy(self) -> "PNCounter":
        clone = self._blank_copy()
        clone._p = self._p.copy()
        clone._n = self._n.copy()
        return clone

    def state(self) -> dict:
        return {"p": self._p.state(), "n": self._n.state()}

    @classmethod
    def from_state(cls, replica_id: Hashable, state: dict) -> "PNCounter":
        counter = cls(replica_id)
        counter._p = GCounter.from_state(replica_id, state["p"])
        counter._n = GCounter.from_state(replica_id, state["n"])
        return counter
