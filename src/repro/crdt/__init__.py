"""Conflict-free replicated data types.

State-based: :class:`GCounter`, :class:`PNCounter`,
:class:`LWWRegister`, :class:`MVRegister`, :class:`TwoPSet`,
:class:`ORSet`, :class:`RGA`.

Op-based (with causal delivery): :class:`OpORSet`, :class:`CausalBuffer`.

Delta-state is a property, not a second family: ``ORSet.add`` /
``remove`` and ``GCounter.increment`` return the small state a peer
joins with the same ``merge`` as a full one.
"""

from .base import StateCRDT
from .counters import GCounter, PNCounter
from .opbased import CausalBuffer, OpEnvelope, OpORSet
from .registers import LWWRegister, MVRegister
from .rga import RGA, RGANode
from .sets import ORSet, TwoPSet

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
    "OpEnvelope",
    "CausalBuffer",
]
