"""Protocol-agnostic store API: one client surface for every mechanism.

>>> from repro.api import registry
>>> for name in registry.names():
...     print(name)
bayou
cached
causal
chain
multipaxos
pileus
primary_backup
quorum
quorum_siblings
timeline
"""

from . import registry
from .store import (
    READ_PREFERENCES,
    ConsistentStore,
    FnSession,
    StoreCapabilities,
    StoreSession,
    mapped_future,
    resolved,
)

# Importing the protocol packages registers every store: each
# protocol's replica group carries its own ``@registry.register``, and
# the cache tier comes last so it can wrap any of them.
from .. import replication, sla, cache  # noqa: E402,F401

__all__ = [
    "READ_PREFERENCES",
    "ConsistentStore",
    "StoreSession",
    "FnSession",
    "StoreCapabilities",
    "registry",
    "mapped_future",
    "resolved",
]
