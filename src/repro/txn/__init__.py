"""Transaction-side relaxations of one-copy serializability.

* :class:`RedBlueBank` — RedBlue consistency (blue = commutative local
  ops, red = globally serialized ops).
* :class:`EscrowCounter` — escrow transactions for bounded counters,
  with :class:`CentralCounterServer` as the coordinated baseline.
"""

from .escrow import (
    CentralCounterClient,
    CentralCounterServer,
    EscrowCounter,
    EscrowSite,
)
from .redblue import RedBlueBank, RedBlueSite, RedCoordinator

__all__ = [
    "RedBlueBank",
    "RedBlueSite",
    "RedCoordinator",
    "EscrowCounter",
    "EscrowSite",
    "CentralCounterServer",
    "CentralCounterClient",
]
