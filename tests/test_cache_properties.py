"""Property tests for the cache tier (Hypothesis).

Three load-bearing invariants, each checked over random op sequences:

* write-through over a fresh-reading (quorum) backing store is
  observationally equivalent to the uncached store — byte-identical
  observation-trace hashes;
* the LRU never exceeds its configured capacity, at any point;
* at every quiescent point each backing replica holds each key's
  last-written value, and every acked backing write is one CDC event.
"""

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import registry
from repro.cache import POLICIES, CachedStore
from repro.sim import FixedLatency, Network, Simulator, spawn


def build_store(seed, cached, policy="write_through", **kwargs):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=FixedLatency(2.0))
    store = registry.build("quorum", sim, net, nodes=3)
    if cached:
        store = CachedStore(store, policy=policy, miss_mode="quorum",
                            **kwargs)
    return sim, store


def drive(sim, script):
    process = spawn(sim, script)
    sim.run()
    if process.error is not None:
        raise process.error


# One client, sequential ops: (is_write, key_index, value_index).
ops_st = st.lists(
    st.tuples(st.booleans(), st.integers(0, 5), st.integers(0, 99)),
    min_size=1, max_size=30,
)


def observe(ops, cached, read_mode=None, **kwargs):
    """Run ``ops`` sequentially and return the observation trace: what
    a client of the store actually sees, plus its hash."""
    sim, store = build_store(1234, cached, **kwargs)
    session = store.session("observer")
    observed = []

    def script():
        for is_write, key_index, value_index in ops:
            key = f"k{key_index}"
            if is_write:
                yield session.put(key, f"v{value_index}")
                observed.append(("w", key, f"v{value_index}"))
            else:
                value, _token = yield session.get(key, mode=read_mode)
                observed.append(("r", key, value))

    drive(sim, script())
    digest = hashlib.blake2b(repr(observed).encode(),
                             digest_size=16).hexdigest()
    return observed, digest, store


@given(ops=ops_st)
@settings(max_examples=40, deadline=None)
def test_write_through_observationally_equals_uncached(ops):
    """Same ops, same client: the write-through cache must be
    invisible — identical observation-trace hashes."""
    bare, bare_hash, _ = observe(ops, cached=False, read_mode="quorum")
    cached, cached_hash, store = observe(ops, cached=True,
                                         policy="write_through")
    assert cached_hash == bare_hash, (
        f"observation traces diverge:\n  bare={bare}\n  cached={cached}"
    )
    # And the cache actually participated when there was a re-read.
    reread = any(
        not is_write and any(w and k == key_index
                             for w, k, _ in ops[:index])
        for index, (is_write, key_index, _) in enumerate(ops)
    )
    if reread:
        assert store.cache_stats()["hits"] > 0


@given(ops=ops_st, capacity=st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_lru_never_exceeds_capacity(ops, capacity):
    sim, store = build_store(99, cached=True, policy="write_through",
                             capacity=capacity)
    session = store.session("observer")

    def script():
        for is_write, key_index, value_index in ops:
            key = f"k{key_index}"
            if is_write:
                yield session.put(key, value_index)
            else:
                yield session.get(key)
            assert store.cache_stats()["size"] <= capacity

    drive(sim, script())
    assert store.cache_stats()["size"] <= capacity


@given(
    batches=st.lists(
        st.lists(st.tuples(st.integers(0, 5), st.integers(0, 99)),
                 min_size=1, max_size=8),
        min_size=1, max_size=4,
    ),
    policy=st.sampled_from(POLICIES),
)
@settings(max_examples=40, deadline=None)
def test_backing_replicas_hold_last_writes_at_quiescence(batches, policy):
    """After ``settle()`` every backing replica holds each key's
    last-written value, and the CDC counter counts one event per acked
    backing write (for write-behind, one per flush)."""
    sim, store = build_store(7, cached=True, policy=policy,
                             flush_delay=5.0)
    session = store.session("writer")
    final = {}

    for batch in batches:
        def script(batch=batch):
            for key_index, value_index in batch:
                yield session.put(f"k{key_index}", f"v{value_index}")

        drive(sim, script())
        store.settle()
        sim.run()   # quiescent: every write acked and flushed
        for key_index, value_index in batch:
            final[f"k{key_index}"] = f"v{value_index}"
        for snapshot in store.snapshots():
            assert {key: snapshot.get(key) for key in final} == final

    total_writes = sum(len(batch) for batch in batches)
    cdc_events = sim.metrics.counter("cache.cdc_events").value
    if policy == "write_behind":
        # Coalescing may collapse rapid same-key writes into one
        # flush, but every key's final write is flushed.
        assert len(final) <= cdc_events <= total_writes
        assert cdc_events == sim.metrics.counter("cache.wb_flushes").value
    else:
        assert cdc_events == total_writes
