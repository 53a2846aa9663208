"""One ``caps → caps`` rule per wrapping layer, side by side: a
guarantee belongs to whichever layer answers the read, so a layer's
record is its inner store's with only what the layer changes named.
:class:`~repro.cache.CachedStore` and
:class:`~repro.sharding.ShardedStore` call theirs at construction."""

from __future__ import annotations

from dataclasses import replace

from .store import StoreCapabilities

#: Session guarantees a cache policy can preserve *when the backing
#: adapter declares them*; it waives the rest with a documented reason.
_PRESERVED = {
    "cache_aside": frozenset({"ryw", "mw"}),
    "read_through": frozenset({"mw"}),
    "write_through": frozenset({"ryw", "mw"}),
    "write_behind": frozenset({"mw"}),
}

_EXPIRED = ("a TTL-expired entry falls back to a backing read that may "
            "predate an earlier shared cache hit")
_HIDDEN = ("cache hits are invisible to the backing session, so "
           "writes-follow-reads ordering is not propagated through hits")
_WAIVER_REASONS = {
    ("cache_aside", "mr"): _EXPIRED,
    ("cache_aside", "wfr"): _HIDDEN,
    ("read_through", "ryw"): ("writes bypass the cache: a hit serves the "
                              "pre-write value for up to the TTL"),
    ("read_through", "mr"): ("writes bypass the cache, so successive "
                             "hits/misses may observe versions out of "
                             "order within the TTL window"),
    ("read_through", "wfr"): _HIDDEN,
    ("write_through", "mr"): _EXPIRED,
    ("write_through", "wfr"): _HIDDEN,
    ("write_behind", "ryw"): ("once the dirty entry is flushed and expires, "
                              "a weak backing read may predate the "
                              "session's own cache-acked write"),
    ("write_behind", "mr"): ("a TTL-expired entry falls back to a backing "
                             "read that may predate an earlier cache hit "
                             "or unflushed write"),
    ("write_behind", "wfr"): ("cache acks precede durability: a dependent "
                              "write can reach the backing store before "
                              "the write it followed"),
}


def cached_capabilities(
    inner: StoreCapabilities,
    policy: str,
    ttl: float | None,
    flush_delay: float,
) -> StoreCapabilities:
    """The honest capability record for a cache over ``inner``.

    Session-guarantee claims are the intersection of what the backing
    adapter declares and what the policy preserves; every dropped
    guarantee becomes a documented waiver.  ``staleness_bound_ms`` is
    TTL + flush lag when the backing store's default reads are fresh
    (its default mode is linearizable), else no declared bound — a
    weak backing read can exceed any TTL.
    """
    claimed = tuple(g for g in inner.session_guarantees
                    if g in _PRESERVED[policy])
    waivers = list(inner.chaos_waivers)
    for guarantee in inner.session_guarantees:
        if guarantee not in _PRESERVED[policy]:
            reason = _WAIVER_REASONS.get(
                (policy, guarantee),
                f"the {policy} policy does not preserve {guarantee}",
            )
            waivers.append((guarantee, reason))
    backing_fresh = (
        inner.default_read_mode in inner.linearizable_read_modes
        or inner.name == "quorum"  # R+W>N at the default tuning
    )
    staleness_bound_ms = None
    if ttl is not None and backing_fresh:
        staleness_bound_ms = ttl + flush_delay
    # Everything else the backing adapter declares carries through.
    return replace(
        inner,
        name=f"cached[{inner.name}:{policy}]",
        description=f"{policy} cache (ttl={ttl}) over {inner.name}",
        read_modes=("cached",) + inner.read_modes,
        session_guarantees=claimed,
        # Write-behind retries internally; the client-side idempotent
        # retry contract is not exercised on the ack path.
        retry_safe_writes=(inner.retry_safe_writes
                           and policy != "write_behind"),
        failover_writes=(inner.failover_writes
                         and policy != "write_behind"),
        # Cache hits serve cached state: no linearizable mode claims.
        linearizable_read_modes=(),
        chaos_waivers=tuple(waivers),
        staleness_bound_ms=staleness_bound_ms,
    )


def sharded_capabilities(
    inner: StoreCapabilities, shards: int, placed: bool,
) -> StoreCapabilities:
    """The record for a router over ``shards`` groups of ``inner``.

    Linearizability is local (Herlihy & Wing), so each linearizable
    read mode carries through, as does every waiver.  Of the session
    guarantees only the per-key ``ryw`` and ``mr`` do: every op on a
    key reaches the one shard that owns it, while ``mw`` and ``wfr``
    order ops across keys, so across independent shards.  Read
    preferences need a placement (``placed``).
    """
    return replace(
        inner,
        name=f"sharded[{inner.name}x{shards}]",
        description=f"{shards}-shard router over {inner.name}",
        session_guarantees=tuple(g for g in inner.session_guarantees
                                 if g in ("ryw", "mr")),
        elastic=True,
        read_preferences=inner.read_preferences if placed else (),
    )
