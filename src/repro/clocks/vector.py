"""Vector clocks and the causal partial order.

A vector clock maps node id → event count.  Comparison yields one of
four :class:`Ordering` outcomes; ``CONCURRENT`` is the case that makes
eventual consistency interesting — two updates neither of which saw
the other, which a replica must either arbitrate (LWW), keep as
siblings (MV-register), or merge (CRDT).

Vector clocks here are immutable value objects: every mutation returns
a new clock.  That keeps them safe to embed in messages and recorded
histories without defensive copying.
"""

from __future__ import annotations

import enum
from typing import Hashable, Iterator, Mapping, ValuesView


class Ordering(enum.Enum):
    """Outcome of comparing two vector clocks under happened-before."""

    BEFORE = "before"          # self < other
    AFTER = "after"            # self > other
    EQUAL = "equal"
    CONCURRENT = "concurrent"  # incomparable


class VectorClock(Mapping[Hashable, int]):
    """An immutable vector clock.

    >>> v = VectorClock({}).tick("a").tick("a").tick("b")
    >>> v["a"], v["b"], v["c"]
    (2, 1, 0)
    >>> w = v.tick("c")
    >>> v.compare(w) is Ordering.BEFORE
    True
    >>> x, y = VectorClock({}).tick("a"), VectorClock({}).tick("b")
    >>> x.compare(y) is Ordering.CONCURRENT
    True
    """

    __slots__ = ("_counts", "_hash")

    def __init__(self, counts: Mapping[Hashable, int]) -> None:
        source = dict(counts)
        for node, count in source.items():
            if not isinstance(count, int) or count < 0:
                raise ValueError(f"invalid count {count!r} for {node!r}")
        self._counts: dict[Hashable, int] = {
            k: v for k, v in source.items() if v > 0
        }
        self._hash: int | None = None

    @classmethod
    def _adopt(cls, counts: dict[Hashable, int]) -> "VectorClock":
        """Wrap a dict this module just built (fresh, positive ints
        only) without the copy and checks untrusted input gets."""
        clock = cls.__new__(cls)
        clock._counts = counts
        clock._hash = None
        return clock

    # -- Mapping protocol ------------------------------------------------
    def __getitem__(self, node: Hashable) -> int:
        return self._counts.get(node, 0)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._counts)

    def __len__(self) -> int:
        return len(self._counts)

    def values(self) -> ValuesView[int]:
        return self._counts.values()  # a view, not a copy: never mutated

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._counts.items()))
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorClock):
            return NotImplemented
        return self._counts == other._counts

    # -- Clock operations -------------------------------------------------
    def tick(self, node: Hashable) -> "VectorClock":
        """Return a clock with ``node``'s entry incremented."""
        counts = dict(self._counts)
        counts[node] = counts.get(node, 0) + 1
        return VectorClock._adopt(counts)

    def merge(self, other: "VectorClock") -> "VectorClock":
        """Pointwise maximum — the join of the causal lattice."""
        counts = dict(self._counts)
        for node, count in other._counts.items():
            if count > counts.get(node, 0):
                counts[node] = count
        return VectorClock._adopt(counts)

    def compare(self, other: "VectorClock") -> Ordering:
        """Compare under the happened-before partial order."""
        le = all(self[n] <= other[n] for n in self._counts)
        ge = all(other[n] <= self[n] for n in other._counts)
        if le and ge:
            return Ordering.EQUAL
        if le:
            return Ordering.BEFORE
        if ge:
            return Ordering.AFTER
        return Ordering.CONCURRENT

    def dominates(self, other: "VectorClock") -> bool:
        """True when ``self >= other`` pointwise (EQUAL or AFTER)."""
        return all(self[n] >= c for n, c in other._counts.items())

    def delivery(self, stamp: "VectorClock", origin: Hashable) -> bool | None:
        """Causal-broadcast delivery of an op stamped ``stamp`` at
        ``origin``, read against this receiver's clock: ``None`` when
        already delivered, ``True`` when it is ``origin``'s next op and
        every dependency is delivered (then ``self.tick(origin)`` equals
        ``self.merge(stamp)``), ``False`` when it must wait."""
        ours, theirs = self._counts, stamp._counts
        mine, count = ours.get(origin, 0), theirs.get(origin, 0)
        if count <= mine:
            return None
        if count != mine + 1:
            return False
        for node, seen in theirs.items():
            if seen > ours.get(node, 0) and node != origin:
                return False
        return True

    def strictly_dominates(self, other: "VectorClock") -> bool:
        return self.dominates(other) and self._counts != other._counts

    def concurrent_with(self, other: "VectorClock") -> bool:
        return self.compare(other) is Ordering.CONCURRENT

    def entries(self) -> dict[Hashable, int]:
        """A plain-dict copy (for serialization / size accounting)."""
        return dict(self._counts)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{node}:{count}"
            for node, count in sorted(self._counts.items(), key=lambda kv: str(kv[0]))
        )
        return f"VC({inner})"
