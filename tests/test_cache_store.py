"""Unit tests for the cache tier (repro.cache.CachedStore).

Policy semantics, TTL expiry, LRU bounds, the token floor guard,
per-shard caches, serving-tier attribution, and the derived
capability records.
"""

import dataclasses

import pytest

from repro.api import StoreCapabilities, registry
from repro.api.layers import cached_capabilities
from repro.cache import POLICIES, CachedStore
from repro.sharding import ShardedStore
from repro.sim import FixedLatency, Network, Simulator, spawn


def build_cached(seed=7, policy="write_through", protocol="quorum",
                 **kwargs):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=FixedLatency(2.0))
    kwargs.setdefault("miss_mode",
                      "quorum" if protocol == "quorum" else None)
    store = registry.build("cached", sim, net, protocol=protocol,
                           policy=policy, nodes=3, **kwargs)
    return sim, store


def drive(sim, script):
    """Run a generator script to completion on the simulator."""
    process = spawn(sim, script)
    sim.run()
    if process.error is not None:
        raise process.error
    return process


# ----------------------------------------------------------------------
# Round trips per policy
# ----------------------------------------------------------------------

@pytest.mark.parametrize("policy", POLICIES)
def test_policy_round_trip(policy):
    sim, store = build_cached(policy=policy)
    session = store.session("alice")
    seen = {}

    def script():
        yield session.put("k", "v1")
        value, token = yield session.get("k")
        seen["first"] = value
        yield session.put("k", "v2")
        value, token = yield session.get("k")
        seen["second"] = value

    drive(sim, script())
    assert seen["first"] == "v1"
    # read_through hits may serve the pre-write value until the TTL;
    # every other policy must serve the newest acked write.
    if policy != "read_through":
        assert seen["second"] == "v2"


@pytest.mark.parametrize("policy", POLICIES)
def test_settle_converges_backing_replicas(policy):
    sim, store = build_cached(policy=policy)
    session = store.session("writer")

    def script():
        for i in range(6):
            yield session.put(f"k{i % 3}", f"v{i}")

    drive(sim, script())
    store.settle()
    sim.run()
    snapshots = store.snapshots()
    assert snapshots, "backing store must expose snapshots"
    assert all(snap == snapshots[0] for snap in snapshots)
    if policy == "write_behind":
        assert store.cache_stats()["pending"] == 0


def test_unknown_policy_rejected():
    sim = Simulator(seed=1)
    net = Network(sim, latency=FixedLatency(2.0))
    inner = registry.build("quorum", sim, net, nodes=3)
    with pytest.raises(ValueError):
        CachedStore(inner, policy="write_around")


# ----------------------------------------------------------------------
# Hits, TTL expiry, LRU
# ----------------------------------------------------------------------

def test_write_through_hit_serves_from_cache():
    sim, store = build_cached(policy="write_through")
    session = store.session("alice")
    tiers = []

    def script():
        yield session.put("k", "v")
        for _ in range(3):
            future = session.get("k")
            yield future
            tiers.append(future.served_tier)

    drive(sim, script())
    assert tiers == ["cache", "cache", "cache"]
    stats = store.cache_stats()
    assert stats["hits"] == 3
    assert stats["hit_rate"] == 1.0


def test_cache_aside_first_read_misses_then_hits():
    sim, store = build_cached(policy="cache_aside")
    session = store.session("alice")
    tiers = []

    def script():
        yield session.put("k", "v")
        for _ in range(3):
            future = session.get("k")
            yield future
            tiers.append(future.served_tier)

    drive(sim, script())
    assert tiers == ["store", "cache", "cache"]


def test_ttl_expiry_forces_backing_read():
    sim, store = build_cached(policy="write_through", ttl=50.0)
    session = store.session("alice")
    tiers = []

    def script():
        yield session.put("k", "v")
        future = session.get("k")
        yield future
        tiers.append(future.served_tier)
        yield 60.0  # sleep past the TTL
        future = session.get("k")
        yield future
        tiers.append(future.served_tier)

    drive(sim, script())
    assert tiers == ["cache", "store"]
    assert sim.metrics.counter("cache.expirations").value == 1


def test_ttl_none_never_expires():
    sim, store = build_cached(policy="write_through", ttl=None)
    session = store.session("alice")
    tiers = []

    def script():
        yield session.put("k", "v")
        yield 10_000.0
        future = session.get("k")
        yield future
        tiers.append(future.served_tier)

    drive(sim, script())
    assert tiers == ["cache"]


def test_lru_capacity_bound_and_eviction_order():
    sim, store = build_cached(policy="write_through", capacity=2)
    session = store.session("alice")
    tiers = {}

    def script():
        yield session.put("a", "1")
        yield session.put("b", "2")
        # Touch "a" so "b" is the LRU victim when "c" lands.
        yield session.get("a")
        yield session.put("c", "3")
        # Read "b" last: its miss-fill displaces another entry, so
        # earlier reads see the pre-displacement state.
        for key in ("a", "c", "b"):
            future = session.get(key)
            yield future
            tiers[key] = future.served_tier

    drive(sim, script())
    assert store.cache_stats()["size"] <= 2
    assert sim.metrics.counter("cache.evictions").value >= 1
    assert tiers["a"] == "cache"
    assert tiers["c"] == "cache"
    assert tiers["b"] == "store"   # evicted by the put of "c"


# ----------------------------------------------------------------------
# Token floor guard
# ----------------------------------------------------------------------

def test_floor_guard_rejects_stale_fill():
    # R = W = 1 and a partition let alice's coordinator keep v1 after
    # bob's acked v2 raised the key's floor through the cache.
    sim, store = build_cached(policy="cache_aside", r=1, w=1,
                              sloppy=False, miss_mode=None)
    alice = store.session("alice", coordinator="dyn0")
    bob = store.session("bob", coordinator="dyn1")
    seen = {}

    def script():
        yield alice.put("k", "v1")
        yield 50.0                          # v1 reaches every replica
        store.network.partition(["dyn0", alice.client_id],
                                ["dyn1", "dyn2", bob.client_id])
        # The acked write invalidates with its token: the next miss
        # returns backing state older than the floor, which is served
        # but must not be cached.
        yield bob.put("k", "v2")
        future = alice.get("k")
        value, _ = yield future
        seen["value"] = value
        seen["tier1"] = future.served_tier
        future = alice.get("k")
        yield future
        seen["tier2"] = future.served_tier

    drive(sim, script())
    assert seen["value"] == "v1"        # still served to the caller
    assert seen["tier1"] == "store"
    assert seen["tier2"] == "store"     # not cached: misses again
    assert sim.metrics.counter("cache.stale_misses").value >= 2


def test_invalidate_drops_entry():
    sim, store = build_cached(policy="cache_aside")
    session = store.session("alice")
    seen = []

    def script():
        yield session.put("k", "v1")
        yield session.get("k")              # the miss fills the cache
        yield session.put("k", "v2")        # the acked write invalidates
        future = session.get("k")
        value, _ = yield future
        seen.append((value, future.served_tier))

    drive(sim, script())
    assert seen == [("v2", "store")]
    assert sim.metrics.counter("cache.invalidations").value == 1


# ----------------------------------------------------------------------
# Write-behind
# ----------------------------------------------------------------------

def test_write_behind_acks_from_cache_with_wb_tokens():
    sim, store = build_cached(policy="write_behind")
    session = store.session("alice")
    seen = {}

    def script():
        future = session.put("k", "v1")
        token = yield future
        seen["token1"] = token
        seen["ack_tier"] = future.served_tier
        future = session.get("k")
        value, token = yield future
        seen["read"] = (value, token, future.served_tier)

    drive(sim, script())
    assert seen["token1"] == ("wb", 1)
    assert seen["ack_tier"] == "cache"
    assert seen["read"] == ("v1", ("wb", 1), "cache")
    assert sim.metrics.counter("cache.wb_pending_hits").value == 1


def test_write_behind_coalesces_rapid_writes():
    sim, store = build_cached(policy="write_behind", flush_delay=50.0)
    session = store.session("alice")

    def script():
        for i in range(5):
            yield session.put("k", f"v{i}")

    drive(sim, script())
    store.settle()
    sim.run()
    flushes = sim.metrics.counter("cache.wb_flushes").value
    assert sim.metrics.counter("cache.wb_writes").value == 5
    assert 1 <= flushes < 5
    # The last write is what the backing replicas agree on.
    snapshots = store.snapshots()
    assert all(snap.get("k") == "v4" for snap in snapshots)


def test_write_behind_miss_maps_foreign_tokens_below_acked():
    sim, store = build_cached(policy="write_behind", ttl=20.0,
                              flush_delay=5.0)
    session = store.session("alice")
    seen = {}

    def script():
        yield session.put("k", "v1")
        yield 60.0  # flush completes, then the clean entry expires
        future = session.get("k")
        value, token = yield future
        seen["read"] = (value, token, future.served_tier)

    drive(sim, script())
    # The miss fetched the flushed write back; its backing token maps
    # to the cache token the ack minted, so ordering stays consistent.
    assert seen["read"] == ("v1", ("wb", 1), "store")


# ----------------------------------------------------------------------
# Pass-through reads, sharding, delegation
# ----------------------------------------------------------------------

def test_explicit_mode_bypasses_cache():
    sim, store = build_cached(policy="write_through")
    session = store.session("alice")
    seen = {}

    def script():
        yield session.put("k", "v")
        future = session.get("k", mode="quorum")
        value, _ = yield future
        seen["value"] = value
        seen["tier"] = future.served_tier

    drive(sim, script())
    assert seen["value"] == "v"
    assert seen["tier"] == "store"
    # The put installed (write_through) but the bypass read never
    # consulted the cache.
    assert sim.metrics.counter("cache.hits").value == 0
    assert sim.metrics.counter("cache.misses").value == 0


def test_per_shard_caches_over_sharded_store():
    sim = Simulator(seed=11)
    net = Network(sim, latency=FixedLatency(2.0))
    inner = ShardedStore(sim, net, protocol="quorum", shards=3,
                         nodes_per_shard=3)
    store = CachedStore(inner, policy="write_through")
    session = store.session("alice")

    def script():
        for i in range(12):
            yield session.put(f"key-{i}", i)

    drive(sim, script())
    # Keys route to their backing shard's own cache.
    assert len(store._shards) > 1
    cached_keys = set()
    for shard in store._shards.values():
        cached_keys |= set(shard.entries)
    assert cached_keys == {f"key-{i}" for i in range(12)}
    assert store.shard_of("key-0") is not None  # delegation works


def test_delegation_exposes_inner_surfaces():
    sim, store = build_cached()
    assert store.server_ids() == store.inner.server_ids()
    assert store.ring is store.inner.ring
    with pytest.raises(AttributeError):
        store.no_such_surface


# ----------------------------------------------------------------------
# Capabilities
# ----------------------------------------------------------------------

def test_derived_capabilities_intersect_claims():
    causal = registry.get("causal").capabilities
    for policy in POLICIES:
        caps = cached_capabilities(causal, policy, ttl=100.0,
                                   flush_delay=0.0)
        assert set(caps.session_guarantees) <= set(causal.session_guarantees)
        # Every dropped guarantee is a documented waiver.
        dropped = (set(causal.session_guarantees)
                   - set(caps.session_guarantees))
        for guarantee in dropped:
            assert caps.waiver_for(guarantee)
        assert caps.linearizable_read_modes == ()
        assert caps.read_modes[0] == "cached"


#: What each wrapper tier changes.  Every other field must equal the
#: wrapped adapter's: a tier may not drop what the adapter declares.
_SHARDED_OVERRIDES = {
    "name", "description", "session_guarantees", "elastic",
    "read_preferences",
}
_CACHED_OVERRIDES = {
    "name", "description", "read_modes", "session_guarantees",
    "retry_safe_writes", "failover_writes", "linearizable_read_modes",
    "chaos_waivers", "staleness_bound_ms",
}


def _assert_carried_through(inner, outer, overrides):
    for field in dataclasses.fields(StoreCapabilities):
        if field.name not in overrides:
            assert getattr(outer, field.name) == getattr(inner, field.name), (
                f"{outer.name} resets {field.name}")


@pytest.mark.parametrize("protocol", registry.names())
def test_sharded_store_keeps_what_the_adapter_declares(protocol):
    sim = Simulator(seed=1)
    store = ShardedStore(sim, Network(sim), protocol=protocol, shards=2)
    inner = registry.get(protocol).capabilities
    _assert_carried_through(inner, store.capabilities, _SHARDED_OVERRIDES)
    assert store.capabilities.elastic
    # Only the per-key session guarantees survive the router.
    assert store.capabilities.session_guarantees == tuple(
        g for g in inner.session_guarantees if g in ("ryw", "mr"))


def test_sharded_pileus_carries_both_waivers():
    sim = Simulator(seed=1)
    store = ShardedStore(sim, Network(sim), protocol="pileus", shards=2)
    waivers = registry.get("pileus").capabilities.chaos_waivers
    assert len(waivers) == 2
    assert store.capabilities.chaos_waivers == waivers
    for guarantee, reason in waivers:
        assert store.capabilities.waiver_for(guarantee) == reason


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("protocol", registry.names())
def test_cached_store_keeps_what_the_adapter_declares(protocol, policy):
    inner = registry.get(protocol).capabilities
    caps = cached_capabilities(inner, policy, ttl=100.0, flush_delay=0.0)
    _assert_carried_through(inner, caps, _CACHED_OVERRIDES)
    # The inner waivers survive; the policy only adds to them.
    assert caps.chaos_waivers[:len(inner.chaos_waivers)] == inner.chaos_waivers


def test_staleness_bound_auto():
    quorum = registry.get("quorum").capabilities
    causal = registry.get("causal").capabilities
    fresh = cached_capabilities(quorum, "write_through", ttl=100.0,
                                flush_delay=0.0)
    assert fresh.staleness_bound_ms == 100.0
    behind = cached_capabilities(quorum, "write_behind", ttl=100.0,
                                 flush_delay=25.0)
    assert behind.staleness_bound_ms == 125.0
    weak = cached_capabilities(causal, "write_through", ttl=100.0,
                               flush_delay=0.0)
    assert weak.staleness_bound_ms is None
    unbounded = cached_capabilities(quorum, "write_through", ttl=None,
                                    flush_delay=0.0)
    assert unbounded.staleness_bound_ms is None


def test_registry_entry_builds_over_other_protocols():
    sim, store = build_cached(protocol="causal", policy="cache_aside",
                              miss_mode="local")
    assert store.capabilities.name == "cached[causal:cache_aside]"
    session = store.session("alice")
    seen = {}

    def script():
        yield session.put("k", "v")
        value, _ = yield session.get("k")
        seen["value"] = value

    drive(sim, script())
    assert seen["value"] == "v"
