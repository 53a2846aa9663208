"""Lamport scalar clocks (Lamport 1978).

The tutorial's ordering discussion bottoms out in Lamport's
happened-before relation; the scalar clock is its cheapest witness:
if ``a`` happened-before ``b`` then ``L(a) < L(b)`` (but not
conversely).  Ties are broken by node id to give the total order used
by last-writer-wins registers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable


@dataclass(frozen=True)
class LamportStamp:
    """A (counter, node) pair, ordered by ``(counter, str(node))``: ``str``
    runs on a counter tie only.  ``>``, ``<=``, ``>=`` are ``<`` swapped or
    negated, never ``==``: ids that differ but print alike tie."""

    counter: int
    node: Hashable

    def __lt__(self, other: "LamportStamp") -> bool:
        if not isinstance(other, LamportStamp):
            return NotImplemented
        if self.counter != other.counter:
            return self.counter < other.counter
        return str(self.node) < str(other.node)

    def __gt__(self, other: "LamportStamp") -> bool:
        return other.__lt__(self) if isinstance(other, LamportStamp) else NotImplemented

    def __le__(self, other: "LamportStamp") -> bool:
        return not other.__lt__(self) if isinstance(other, LamportStamp) else NotImplemented

    def __ge__(self, other: "LamportStamp") -> bool:
        return not self.__lt__(other) if isinstance(other, LamportStamp) else NotImplemented

    def __str__(self) -> str:
        return f"{self.counter}@{self.node}"


class LamportClock:
    """A per-node Lamport clock.

    >>> a, b = LamportClock("a"), LamportClock("b")
    >>> s1 = a.tick()
    >>> s2 = b.observe(s1)   # receive: advance past the sender
    >>> s1 < s2
    True
    """

    def __init__(self, node: Hashable) -> None:
        self.node = node
        self.counter = 0

    def tick(self) -> LamportStamp:
        """Local event: advance and stamp."""
        self.counter += 1
        return LamportStamp(self.counter, self.node)

    def observe(self, stamp: LamportStamp) -> LamportStamp:
        """Message receipt: jump past the incoming stamp, then tick."""
        self.counter = max(self.counter, stamp.counter)
        return self.tick()

    def peek(self) -> LamportStamp:
        """Current stamp without advancing (for reads)."""
        return LamportStamp(self.counter, self.node)
