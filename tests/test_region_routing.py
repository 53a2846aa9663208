"""Property tests: region spread invariants.

The invariant the multi-region stack leans on: any ``k``
consecutively-spread replicas span ``min(k, regions)`` regions,
whatever the stagger — one region's loss can never take out a whole
replica set of size >= 2.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.placement import Placement, spread_placement
from repro.sharding import ShardedStore
from repro.sim import THREE_CONTINENTS, FixedLatency, Network, Simulator

REGION_NAMES = st.lists(
    st.text(alphabet="abcdefgh", min_size=1, max_size=4),
    min_size=1, max_size=6, unique=True,
)


@given(
    n_nodes=st.integers(1, 24),
    regions=REGION_NAMES,
    start=st.integers(0, 11),
)
@settings(max_examples=80, deadline=None)
def test_spread_spans_min_k_regions(n_nodes, regions, start):
    nodes = [f"n{i}" for i in range(n_nodes)]
    spread = spread_placement(nodes, regions, start=start)
    assert set(spread) == set(nodes)
    assert len(set(spread.values())) == min(n_nodes, len(regions))


@given(
    n_nodes=st.integers(2, 24),
    regions=REGION_NAMES,
    start=st.integers(0, 11),
    k=st.integers(2, 5),
)
@settings(max_examples=80, deadline=None)
def test_any_consecutive_window_spans_min_k_regions(
    n_nodes, regions, start, k
):
    nodes = [f"n{i}" for i in range(n_nodes)]
    order = list(spread_placement(nodes, regions, start=start).items())
    for lo in range(0, n_nodes - k + 1):
        window = {region for _n, region in order[lo:lo + k]}
        assert len(window) == min(k, len(regions))


def build_store(shards):
    sim = Simulator(seed=11)
    network = Network(sim, latency=FixedLatency(1.0))
    placement = Placement(THREE_CONTINENTS, default_region="eu")
    store = ShardedStore(
        sim, network, protocol="quorum", shards=shards,
        nodes_per_shard=3, placement=placement,
    )
    return store, placement


@given(shards=st.integers(1, 5))
@settings(max_examples=10, deadline=None)
def test_each_shard_replica_set_spans_every_region(shards):
    store, placement = build_store(shards)
    for shard_id in store.shard_ids:
        replica_regions = {
            placement.region_of(node) for node in
            store.shards[shard_id].server_ids()
        }
        assert replica_regions == set(placement.region_names)


@given(shards=st.integers(1, 5))
@settings(max_examples=10, deadline=None)
def test_shard_leads_are_staggered_across_regions(shards):
    store, placement = build_store(shards)
    leads = [
        placement.region_of(store.shards[shard_id].server_ids()[0])
        for shard_id in store.shard_ids
    ]
    # Shard i leads from region i % 3: consecutive shards never pile
    # their primaries into one region.
    expected = [
        placement.region_names[i % len(placement.region_names)]
        for i in range(shards)
    ]
    assert leads == expected
