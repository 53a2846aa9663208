"""Logical clocks: the causality machinery under every protocol here.

* :class:`LamportClock` — scalar happened-before witness, LWW tiebreak.
* :class:`VectorClock` — exact causality; detects concurrency; stamps
  the op-based CRDTs' causal broadcast.
* :mod:`~repro.clocks.dvv` — the dot kernel: a causal context
  (per-replica prefixes plus a cloud of dots beyond them), its join,
  and the one dot-store join, which ``ORSet`` runs with an entry per
  element and :class:`DottedValueSet` — dotted version vectors,
  Riak-style sibling management without sibling explosion — as a
  one-entry store: the one sibling set, under the quorum store and
  ``MVRegister`` alike.
"""

from .dvv import DottedValueSet
from .lamport import LamportClock, LamportStamp
from .vector import Ordering, VectorClock

__all__ = [
    "LamportClock",
    "LamportStamp",
    "VectorClock",
    "Ordering",
    "DottedValueSet",
]
