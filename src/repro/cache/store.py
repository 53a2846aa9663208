"""A cache tier over any registered ConsistentStore.

:class:`CachedStore` wraps a built store with a seeded-deterministic
TTL + LRU cache and re-exposes the same ``ConsistentStore`` surface,
so every layer above — the workload drivers, the chaos nemesis, the
checkers, the CLI — runs unchanged *through* the cache.  The paper's
point, one tier up the stack: the layer that answers a read defines
the guarantee the client actually gets, and a cache is just another
such layer with its own spot on the staleness spectrum.

Policies (:data:`POLICIES`):

``cache_aside``
    Writes go to the backing store; the acked write *invalidates* the
    cached entry (and raises the per-key token floor so a racing stale
    fill cannot resurrect the old value).  Misses fill the cache.
``read_through``
    Writes go straight to the backing store and leave the cache alone:
    a hit may serve the old value until the entry's TTL expires — the
    classic "stale up to TTL" configuration.
``write_through``
    Writes go to the backing store and the acked ``(value, token)`` is
    installed into the cache, so hits serve the newest acked write.
``write_behind``
    Writes are acked from the cache immediately and flushed to the
    backing store asynchronously (coalescing per key); dirty entries
    live in a separate pending table, so LRU capacity never blocks an
    ack and eviction never loses an unflushed write.

Version tags
------------
Every entry carries the backing store's version token, so cache state
stays comparable with backing state.  Write-behind acks mint per-key
``("wb", seq)`` tokens before the backing token exists; the flush
records the backing-token → cache-token mapping so later miss fills
rank consistently, and a backing token the cache never issued maps to
``("wb", 0, token)`` — ordered below any cache-acked write of the key.

Serving-tier attribution
------------------------
Futures returned by a :class:`CachedSession` carry ``served_tier``
(``"cache"`` or ``"store"``); the workload drivers copy it onto the
recorded history ops so the staleness checkers can attribute staleness
to the tier that caused it.

Everything is deterministic: expiry and flushes ride the simulator
clock, and all ``cache.*`` metrics/trace annotations are pure functions
of the run.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable

from ..api import registry as _registry
from ..api.layers import cached_capabilities
from ..api.store import ConsistentStore, StoreCapabilities, StoreSession
from ..sim import Future

#: The four supported write policies.
POLICIES = ("cache_aside", "read_through", "write_through", "write_behind")

#: Per-attempt timeout (ms) of a write-behind flush.
FLUSH_TIMEOUT = 500.0
#: Failed flushes of one entry retried before it waits for ``settle()``.
MAX_FLUSH_RETRIES = 8


def _newer(a: Any, b: Any) -> bool:
    """True when token ``a`` orders strictly after ``b`` (None=unborn)."""
    if b is None:
        return a is not None
    if a is None:
        return False
    try:
        return a > b
    except TypeError:
        return False


class TierFuture(Future):
    """A Future that remembers which tier served it.

    ``Future`` is slotted, so the cache hands out this subclass; the
    drivers read ``served_tier`` duck-typed via ``getattr``.
    """

    __slots__ = ("served_tier",)

    def __init__(self, sim, tier: str) -> None:
        super().__init__(sim)
        self.served_tier = tier


class _Entry:
    __slots__ = ("value", "token", "expires_at")

    def __init__(self, value: Any, token: Any, expires_at: float) -> None:
        self.value = value
        self.token = token
        self.expires_at = expires_at


class _Pending:
    """One unflushed write-behind write."""

    __slots__ = ("value", "token", "seq", "retries")

    def __init__(self, value: Any, token: Any, seq: int) -> None:
        self.value = value
        self.token = token
        self.seq = seq
        self.retries = 0


class _CacheShard:
    """The cache state for one backing shard (or the whole store)."""

    __slots__ = ("entries", "floor", "pending", "key_seq", "wb_tags",
                 "flushing")

    def __init__(self) -> None:
        self.entries: OrderedDict[Hashable, _Entry] = OrderedDict()
        #: Per-key token watermark: the newest token this cache has
        #: installed or invalidated with.  Guards fills against
        #: resurrecting state the cache already knows is superseded.
        self.floor: dict[Hashable, Any] = {}
        #: Write-behind dirty entries, outside the LRU on purpose:
        #: capacity bounds clean entries only, and eviction can never
        #: drop an unflushed write.
        self.pending: dict[Hashable, _Pending] = {}
        self.key_seq: dict[Hashable, int] = {}
        #: backing token -> cache ("wb", seq) token, per key.
        self.wb_tags: dict[Hashable, dict[Any, Any]] = {}
        #: Keys with a flush RPC on the wire (serializes flushes).
        self.flushing: set[Hashable] = set()


class CachedSession(StoreSession):
    """One client session through the cache.

    Reads in the default ``"cached"`` mode consult the cache; any
    other mode passes straight through to the backing session
    (uncached, tier ``"store"``).  Writes follow the store's policy.
    """

    def __init__(self, store: "CachedStore", inner: StoreSession) -> None:
        self.store = store
        self.inner = inner
        self.name = inner.name
        self.client_id = inner.client_id
        self.read_preference = inner.read_preference
        self.region = inner.region

    def put(self, key: Hashable, value: Any,
            timeout: float | None = None) -> Future:
        return self.store._put(self.inner, key, value, timeout)

    def get(self, key: Hashable, mode: str | None = None,
            timeout: float | None = None) -> Future:
        if mode is None or mode == "cached":
            return self.store._cached_get(self.inner, key, timeout)
        # Pass-through: an explicit backing-store read mode.
        inner_future = self.inner.get(key, mode=mode, timeout=timeout)
        return self.store._chain(inner_future, tier="store")


class CachedStore(ConsistentStore):
    """TTL + LRU cache tier in front of a built ConsistentStore.

    ``capacity`` bounds *clean* entries per shard (write-behind dirty
    entries are tracked separately and flushed, never evicted).
    ``ttl=None`` disables expiry.  Hits are served in the same event.
    ``seed`` is ignored: the cache draws no random numbers, and the
    parameter stays only because the host benchmark passes one.

    When the backing store exposes ``shard_of`` (the elastic sharded
    router), the cache keeps one independent shard-local cache per
    backing shard, created lazily as keys route.
    """

    def __init__(
        self,
        inner: ConsistentStore,
        policy: str = "write_through",
        ttl: float | None = 200.0,
        capacity: int = 512,
        flush_delay: float = 25.0,
        seed: int = 0,
        miss_mode: str | None = None,
    ) -> None:
        if policy not in POLICIES:
            raise ValueError(
                f"unknown cache policy {policy!r}; have {POLICIES}"
            )
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        super().__init__(inner.sim, inner.network)
        self.inner = inner
        self.policy = policy
        self.ttl = ttl
        self.capacity = capacity
        self.flush_delay = flush_delay
        self.miss_mode = miss_mode
        self._shards: dict[Hashable, _CacheShard] = {}
        #: Change-data-capture: every *acked backing write* (direct or
        #: flushed) is counted and annotated ``cdc`` with a dense
        #: per-store sequence number, in commit-ack order.
        self._cdc_events = self.sim.metrics.counter("cache.cdc_events")
        self._cdc_seq = 0
        self.capabilities = cached_capabilities(
            inner.capabilities, policy, ttl,
            flush_delay if policy == "write_behind" else 0.0,
        )
        # Created eagerly so traces do not depend on first-write time.
        self._flusher = (inner.session("cache-flusher")
                        if policy == "write_behind" else None)
        metrics = self.sim.metrics
        self._hits = metrics.counter("cache.hits")
        self._misses = metrics.counter("cache.misses")
        self._fills = metrics.counter("cache.fills")
        self._evictions = metrics.counter("cache.evictions")
        self._expirations = metrics.counter("cache.expirations")
        self._invalidations = metrics.counter("cache.invalidations")
        self._stale_misses = metrics.counter("cache.stale_misses")
        self._wb_writes = metrics.counter("cache.wb_writes")
        self._wb_flushes = metrics.counter("cache.wb_flushes")
        self._wb_coalesced = metrics.counter("cache.wb_coalesced")
        self._wb_retries = metrics.counter("cache.wb_retries")
        self._wb_pending_hits = metrics.counter("cache.wb_pending_hits")
        self._size_gauge = metrics.gauge("cache.size")
        self._pending_gauge = metrics.gauge("cache.pending")

    # ------------------------------------------------------------------
    # ConsistentStore surface (delegation)
    # ------------------------------------------------------------------
    def session(self, name: Hashable | None = None,
                **opts: Any) -> CachedSession:
        return CachedSession(self, self.inner.session(name, **opts))

    def server_ids(self) -> list[Hashable]:
        return self.inner.server_ids()

    def snapshots(self) -> list[dict]:
        return self.inner.snapshots()

    def resize(self, shards: int, **opts: Any) -> Future:
        return self.inner.resize(shards, **opts)

    def settle(self) -> None:
        """Flush every unflushed write-behind entry, then settle the
        backing store — quiescence means the cache holds nothing the
        backing replicas have not seen."""
        for shard in self._shards.values():
            for key, pend in list(shard.pending.items()):
                pend.retries = 0
                if key not in shard.flushing:
                    self.sim.call_soon(self._wb_flush, shard, key, pend.seq)
        self.inner.settle()

    def crash(self, node_id: Hashable) -> None:
        self.inner.crash(node_id)

    def recover(self, node_id: Hashable) -> None:
        self.inner.recover(node_id)

    @property
    def placement(self):
        return self.inner.placement

    def __getattr__(self, name: str):
        # Protocol-specific surfaces (leader, ring, shards, shard_of,
        # add_shard, ...) delegate so the nemesis, autoscaler, and
        # tests poke the backing store through the cache transparently.
        inner = self.__dict__.get("inner")
        if inner is None:
            raise AttributeError(name)
        return getattr(inner, name)

    # ------------------------------------------------------------------
    # Cache mechanics
    # ------------------------------------------------------------------
    def _shard_for(self, key: Hashable) -> _CacheShard:
        shard_of = getattr(self.inner, "shard_of", None)
        shard_id = shard_of(key) if shard_of is not None else "_"
        shard = self._shards.get(shard_id)
        if shard is None:
            shard = self._shards[shard_id] = _CacheShard()
        return shard

    def _expiry(self) -> float:
        if self.ttl is None:
            return float("inf")
        return self.sim.now + self.ttl

    def _update_gauges(self) -> None:
        self._size_gauge.set(
            sum(len(s.entries) for s in self._shards.values())
        )
        self._pending_gauge.set(
            sum(len(s.pending) for s in self._shards.values())
        )

    def _chain(self, inner_future: Future, tier: str) -> TierFuture:
        outer = TierFuture(self.sim, tier)

        def done(future: Future) -> None:
            if future.error is not None:
                outer.fail(future.error)
            else:
                outer.resolve(future.value)

        inner_future.add_callback(done)
        return outer

    def _hit_future(self, value: Any, token: Any) -> TierFuture:
        future = TierFuture(self.sim, "cache")
        future.resolve((value, token))
        return future

    def _install(self, shard: _CacheShard, key: Hashable, value: Any,
                 token: Any, fill: bool = False) -> bool:
        """Install ``(value, token)``; returns whether it was cached.

        Fills (miss-path installs) are floor-guarded: a backing read
        that returned state older than what this cache has already
        installed or invalidated is served to the caller but *not*
        cached — counted as ``cache.stale_misses``.
        """
        floor = shard.floor.get(key)
        if fill and floor is not None and token != floor \
                and not _newer(token, floor):
            self._stale_misses.inc()
            self.sim.annotate("cache", op="stale_miss", key=key,
                              policy=self.policy)
            return False
        entry = shard.entries.get(key)
        if entry is not None and _newer(entry.token, token):
            return False
        if floor is None or _newer(token, floor):
            shard.floor[key] = token
        shard.entries[key] = _Entry(value, token, self._expiry())
        shard.entries.move_to_end(key)
        while len(shard.entries) > self.capacity:
            evicted, _ = shard.entries.popitem(last=False)
            self._evictions.inc()
            self.sim.annotate("cache", op="evict", key=evicted,
                              policy=self.policy)
        self._fills.inc()
        self.sim.annotate("cache", op="fill", key=key, policy=self.policy)
        self._update_gauges()
        return True

    def _invalidate(self, shard: _CacheShard, key: Hashable,
                    token: Any = None) -> None:
        if token is not None:
            floor = shard.floor.get(key)
            if floor is None or _newer(token, floor):
                shard.floor[key] = token
        if key in shard.entries:
            del shard.entries[key]
            self._invalidations.inc()
            self.sim.annotate("cache", op="invalidate", key=key,
                              policy=self.policy)
            self._update_gauges()

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def _cached_get(self, inner_session: StoreSession, key: Hashable,
                    timeout: float | None) -> Future:
        shard = self._shard_for(key)
        pend = shard.pending.get(key)
        if pend is not None:
            self._hits.inc()
            self._wb_pending_hits.inc()
            self.sim.annotate("cache", op="hit", key=key,
                              policy=self.policy, dirty=True)
            return self._hit_future(pend.value, pend.token)
        entry = shard.entries.get(key)
        if entry is not None:
            if self.sim.now >= entry.expires_at:
                del shard.entries[key]
                self._expirations.inc()
                self.sim.annotate("cache", op="expire", key=key,
                                  policy=self.policy)
                self._update_gauges()
            else:
                shard.entries.move_to_end(key)
                self._hits.inc()
                self.sim.annotate("cache", op="hit", key=key,
                                  policy=self.policy)
                return self._hit_future(entry.value, entry.token)
        self._misses.inc()
        self.sim.annotate("cache", op="miss", key=key, policy=self.policy)
        outer = TierFuture(self.sim, "store")
        inner_future = inner_session.get(key, mode=self.miss_mode,
                                         timeout=timeout)

        def done(future: Future) -> None:
            if future.error is not None:
                outer.fail(future.error)
                return
            value, token = future.value
            token = self._map_backing_token(shard, key, token)
            # Serve the backing result either way; _install decides
            # whether it is fresh enough to cache.
            self._install(shard, key, value, token, fill=True)
            outer.resolve((value, token))

        inner_future.add_callback(done)
        return outer

    def _map_backing_token(self, shard: _CacheShard, key: Hashable,
                           token: Any) -> Any:
        """Write-behind: translate a backing token into the cache's
        per-key ``("wb", ...)`` token space so all tokens of a key
        stay mutually comparable."""
        if self.policy != "write_behind" or token is None:
            return token
        mapped = shard.wb_tags.get(key, {}).get(token)
        if mapped is not None:
            return mapped
        # A write this cache never acked (another client, another
        # cache): rank it below any cache-acked write of the key.
        return ("wb", 0, token)

    # ------------------------------------------------------------------
    # Write paths
    # ------------------------------------------------------------------
    def _put(self, inner_session: StoreSession, key: Hashable, value: Any,
             timeout: float | None) -> Future:
        shard = self._shard_for(key)
        if self.policy == "write_behind":
            return self._wb_put(shard, key, value)
        outer = TierFuture(self.sim, "store")
        inner_future = inner_session.put(key, value, timeout=timeout)

        def done(future: Future) -> None:
            if future.error is not None:
                if self.policy in ("cache_aside", "write_through"):
                    # Maybe-applied: drop the cached copy, keep the
                    # floor untouched (we learned no new token).
                    self._invalidate(shard, key)
                outer.fail(future.error)
                return
            token = future.value
            if self.policy == "cache_aside":
                self._invalidate(shard, key, token)
            elif self.policy == "write_through":
                self._install(shard, key, value, token)
            self._cdc_append(key)
            self.sim.annotate("cache", op="write", key=key,
                              policy=self.policy)
            outer.resolve(token)

        inner_future.add_callback(done)
        return outer

    def _cdc_append(self, key: Hashable) -> None:
        self._cdc_seq += 1
        self._cdc_events.inc()
        self.sim.annotate("cdc", op="append", key=key, seq=self._cdc_seq)

    def _wb_put(self, shard: _CacheShard, key: Hashable,
                value: Any) -> Future:
        seq = shard.key_seq.get(key, 0) + 1
        shard.key_seq[key] = seq
        token = ("wb", seq)
        shard.pending[key] = _Pending(value, token, seq)
        floor = shard.floor.get(key)
        if floor is None or _newer(token, floor):
            shard.floor[key] = token
        self._wb_writes.inc()
        self.sim.annotate("cache", op="write", key=key, policy=self.policy,
                          seq=seq)
        self._update_gauges()
        self.sim.schedule(self.flush_delay, self._wb_flush, shard, key, seq)
        future = TierFuture(self.sim, "cache")
        future.resolve(token)
        return future

    def _wb_flush(self, shard: _CacheShard, key: Hashable, seq: int) -> None:
        pend = shard.pending.get(key)
        if pend is None or pend.seq != seq:
            # Superseded by a newer write (its own flush is scheduled)
            # or already flushed.
            self._wb_coalesced.inc()
            return
        if key in shard.flushing:
            # A flush for this key is on the wire; its completion
            # handler chains the next one.
            return
        shard.flushing.add(key)
        inner_future = self._flusher.put(key, pend.value,
                                         timeout=FLUSH_TIMEOUT)

        def done(future: Future) -> None:
            shard.flushing.discard(key)
            if future.error is not None:
                self._wb_retries.inc()
                pend.retries += 1
                if pend.retries <= MAX_FLUSH_RETRIES:
                    self.sim.schedule(
                        self.flush_delay * pend.retries,
                        self._wb_flush, shard, key, pend.seq,
                    )
                # Past the retry budget the entry stays pending;
                # settle() re-arms the flush once faults heal.
                return
            btoken = future.value
            shard.wb_tags.setdefault(key, {})[btoken] = pend.token
            self._wb_flushes.inc()
            self.sim.annotate("cache", op="flush", key=key,
                              policy=self.policy, seq=pend.seq)
            self._cdc_append(key)
            current = shard.pending.get(key)
            if current is pend:
                del shard.pending[key]
                self._install(shard, key, pend.value, pend.token)
                self._update_gauges()
            elif current is not None and key not in shard.flushing:
                # A newer write arrived while this flush was in
                # flight: chain its flush promptly (keeps per-key
                # flushes serialized so the backing store applies
                # them in ack order).
                self.sim.call_soon(self._wb_flush, shard, key, current.seq)

        inner_future.add_callback(done)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def cache_stats(self) -> dict[str, int | float]:
        """A snapshot of the ``cache.*`` counters plus the hit rate."""
        hits = self._hits.value
        misses = self._misses.value
        lookups = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / lookups if lookups else 0.0,
            "fills": self._fills.value,
            "evictions": self._evictions.value,
            "expirations": self._expirations.value,
            "invalidations": self._invalidations.value,
            "stale_misses": self._stale_misses.value,
            "wb_flushes": self._wb_flushes.value,
            "wb_coalesced": self._wb_coalesced.value,
            "wb_retries": self._wb_retries.value,
            "size": sum(len(s.entries) for s in self._shards.values()),
            "pending": sum(len(s.pending) for s in self._shards.values()),
        }


#: Registry-level capabilities for ``registry.build("cached", ...)``.
#: Deliberately minimal: the real record depends on the policy and the
#: backing adapter, so :class:`CachedStore` derives its instance
#: capabilities at build time; the registry entry claims only what
#: every configuration defends (eventual convergence after settle).
_REGISTRY_CAPS = StoreCapabilities(
    name="cached",
    description="TTL+LRU cache tier over any registered adapter "
                "(protocol=..., policy=cache_aside|read_through|"
                "write_through|write_behind)",
    read_modes=("cached",),
    session_guarantees=(),
    chaos_waivers=(
        ("session", "session-guarantee claims depend on the cache "
                    "policy and backing adapter; see the instance "
                    "capabilities CachedStore derives"),
    ),
)


@_registry.register(_REGISTRY_CAPS)
def build_cached(sim, network, protocol: str = "quorum",
                 policy: str = "write_through", ttl: float | None = 200.0,
                 capacity: int = 512, flush_delay: float = 25.0,
                 miss_mode: str | None = None,
                 **inner_kwargs: Any) -> CachedStore:
    """Registry factory: build ``protocol`` and wrap it in a cache."""
    inner = _registry.build(protocol, sim, network, **inner_kwargs)
    return CachedStore(
        inner, policy=policy, ttl=ttl, capacity=capacity,
        flush_delay=flush_delay, miss_mode=miss_mode,
    )
