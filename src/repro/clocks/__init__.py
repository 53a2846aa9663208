"""Logical clocks: the causality machinery under every protocol here.

* :class:`LamportClock` — scalar happened-before witness, LWW tiebreak.
* :class:`VectorClock` — exact causality; detects concurrency.  Used
  per object it is the version vector under a sibling set's dots.
* :class:`DottedValueSet` — dotted version vectors (Riak-style sibling
  management without sibling explosion): the one sibling set, under
  the quorum store and ``MVRegister`` alike.
"""

from .dvv import Dot, DottedValueSet, DottedVersion
from .lamport import LamportClock, LamportStamp
from .vector import Ordering, VectorClock

__all__ = [
    "LamportClock",
    "LamportStamp",
    "VectorClock",
    "Ordering",
    "Dot",
    "DottedVersion",
    "DottedValueSet",
]
