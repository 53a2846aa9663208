"""Per-replica storage engines.

The replicas of :mod:`repro.replication` hold their own stores —
``LWWStamps`` / ``DottedSiblings`` in the quorum engine, the
highest-version-wins ``VersionedReplica`` under primary–backup, chain
and timeline.  What lives here is :class:`MultiVersionStore`, the
committed-history store behind snapshot-isolation transactions.
"""

from .mvstore import MultiVersionStore, TimestampOracle, Version

__all__ = [
    "MultiVersionStore",
    "TimestampOracle",
    "Version",
]
