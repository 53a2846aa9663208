"""The caching tier.

``repro.cache`` puts a deterministic TTL+LRU cache
(:class:`CachedStore`, four policies) in front of any registered
:class:`~repro.api.ConsistentStore`.  The conformance engine
(:func:`repro.chaos.run_cell` with a ``policy``) grades it with the
same checkers and the same rule as a bare adapter, on histories
recorded at the cache boundary.

Importing :mod:`repro.api` registers the ``"cached"`` adapter::

    store = registry.build("cached", sim, net, protocol="quorum",
                           policy="write_through", ttl=200.0)
"""

from .store import (
    POLICIES,
    CachedSession,
    CachedStore,
    TierFuture,
    build_cached,
    derive_capabilities,
)

__all__ = [
    "POLICIES",
    "CachedStore",
    "CachedSession",
    "TierFuture",
    "build_cached",
    "derive_capabilities",
]
