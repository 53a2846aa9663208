"""The caching tier.

``repro.cache`` puts a deterministic TTL+LRU cache
(:class:`CachedStore`, four policies) in front of any registered
:class:`~repro.api.ConsistentStore`; its capability record is
:func:`repro.api.layers.cached_capabilities`.  The conformance engine
grades a ``cached[POLICY]:…`` stack (:func:`repro.chaos.run_cell`)
with the same checkers and the same rule as a bare adapter, on
histories recorded at the cache boundary.

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
)

__all__ = [
    "POLICIES",
    "CachedStore",
    "CachedSession",
    "TierFuture",
    "build_cached",
]
