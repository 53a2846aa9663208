"""Logical clocks: the causality machinery under every protocol here.

* :class:`LamportClock` — scalar happened-before witness, LWW tiebreak.
* :mod:`~repro.clocks.vector` — causal broadcast on version vectors,
  plain dicts: :func:`delivery` reads an envelope against a clock, and
  :class:`CausalBuffer` stamps, dedups and delivers in causal order for
  the causal store and the op-based OR-Set.
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
from .vector import CausalBuffer, OpEnvelope, delivery

__all__ = [
    "LamportClock",
    "LamportStamp",
    "CausalBuffer",
    "OpEnvelope",
    "delivery",
    "DottedValueSet",
]
