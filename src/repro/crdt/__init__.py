"""Conflict-free replicated data types.

State-based: :class:`GCounter`, :class:`PNCounter`,
:class:`LWWRegister`, :class:`MVRegister`, :class:`TwoPSet`,
:class:`ORSet`, :class:`RGA`.

Op-based: :class:`OpORSet`, whose ops are just the operation, stamped
and delivered by :class:`repro.clocks.CausalBuffer`.

Delta-state is a property, not a second family: ``ORSet.add`` /
``remove`` and ``GCounter.increment`` return the small state a peer
joins with the same ``merge`` as a full one.
"""

from .base import StateCRDT
from .counters import GCounter, PNCounter
from .registers import LWWRegister, MVRegister
from .rga import RGA, RGANode
from .sets import OpORSet, ORSet, TwoPSet

__all__ = [
    "StateCRDT",
    "GCounter",
    "PNCounter",
    "LWWRegister",
    "MVRegister",
    "TwoPSet",
    "ORSet",
    "RGA",
    "RGANode",
    "OpORSet",
]
