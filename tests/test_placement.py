"""Unit tests for repro.placement: regions, spread, locality views."""

import pytest

from repro.errors import NetworkError
from repro.placement import LocalityMap, Placement, spread_placement
from repro.sim import THREE_CONTINENTS, Simulator
from repro.sim.topology import INTRA_SITE


def three_region_placement(**kwargs):
    return Placement(THREE_CONTINENTS, **kwargs)


# ----------------------------------------------------------------------
# spread_placement (the pure policy)
# ----------------------------------------------------------------------

def test_spread_round_robins_in_order():
    got = spread_placement(["a", "b", "c", "d"], ["r0", "r1", "r2"])
    assert got == {"a": "r0", "b": "r1", "c": "r2", "d": "r0"}


def test_spread_start_staggers_the_lead_region():
    got = spread_placement(["a", "b"], ["r0", "r1", "r2"], start=2)
    assert got == {"a": "r2", "b": "r0"}


def test_spread_with_no_regions_rejected():
    with pytest.raises(NetworkError):
        spread_placement(["a"], [])


# ----------------------------------------------------------------------
# Placement declaration
# ----------------------------------------------------------------------

def test_placement_defaults_regions_from_topology():
    placement = three_region_placement()
    assert placement.region_names == ("us-east", "eu", "asia")


def test_placement_rejects_region_not_in_topology():
    with pytest.raises(NetworkError):
        three_region_placement().place("n0", "mars")


def test_placement_rejects_undeclared_default_region():
    with pytest.raises(NetworkError):
        three_region_placement(default_region="atlantis")


# ----------------------------------------------------------------------
# Assignment + lookup
# ----------------------------------------------------------------------

def test_place_and_lookup():
    placement = three_region_placement()
    placement.place("n0", "eu")
    assert placement.region_of("n0") == "eu"
    assert placement.is_placed("n0")
    assert not placement.is_placed("n1")


def test_replace_overrides_region():
    placement = three_region_placement()
    placement.place("n0", "eu")
    placement.place("n0", "asia")
    assert placement.region_of("n0") == "asia"


def test_unplaced_node_falls_back_to_default_region():
    placement = three_region_placement(default_region="eu")
    assert placement.region_of("stray-client") == "eu"
    # The fallback is a lookup default, not an assignment.
    assert not placement.is_placed("stray-client")


def test_unplaced_node_without_default_raises():
    placement = three_region_placement()
    with pytest.raises(NetworkError, match="no region"):
        placement.region_of("stray-client")


def test_nodes_in_preserves_placement_order_and_filters():
    placement = three_region_placement()
    placement.spread(["n0", "n1", "n2", "n3", "n4", "n5"])
    assert placement.nodes_in("eu") == ["n1", "n4"]
    assert placement.nodes_in("eu", within=["n4", "n0"]) == ["n4"]


def test_delay_resolves_through_topology():
    placement = three_region_placement()
    assert placement.delay("eu", "eu") == INTRA_SITE
    assert placement.delay("us-east", "eu") == 40.0
    assert placement.delay("eu", "asia") == 120.0


# ----------------------------------------------------------------------
# Derived views: latency model + locality maps
# ----------------------------------------------------------------------

def test_latency_model_is_a_live_closure_over_placement():
    placement = three_region_placement()
    placement.place("n0", "us-east")
    model = placement.latency_model(jitter=0.0)
    # Placed *after* the model was built — the session/forwarder case.
    placement.place("late", "eu")
    sim = Simulator()
    assert model.sample(sim.rng, "n0", "late") == 40.0


def test_locality_order_is_stable_among_equidistant_endpoints():
    placement = three_region_placement()
    placement.place("p", "us-east")
    placement.place("f1", "eu")
    placement.place("f2", "eu")
    locality = placement.locality("eu")
    # Both followers are at intra-site distance; the caller's
    # preference order between them must survive the sort.
    assert locality.order(["p", "f2", "f1"]) == ["f2", "f1", "p"]
    assert locality.order(["p", "f1", "f2"]) == ["f1", "f2", "p"]


def test_locality_is_local_and_nearest():
    placement = three_region_placement()
    placement.place("p", "us-east")
    placement.place("f", "eu")
    locality = placement.locality("eu")
    assert locality.is_local("f") and not locality.is_local("p")
    assert locality.nearest(["p", "f"]) == "f"
    with pytest.raises(NetworkError):
        locality.nearest([])


def test_locality_rejects_unknown_origin():
    with pytest.raises(NetworkError):
        three_region_placement().locality("atlantis")


def test_locality_map_is_a_view_not_a_snapshot():
    placement = three_region_placement()
    placement.place("n0", "us-east")
    locality: LocalityMap = placement.locality("eu")
    assert not locality.is_local("n0")
    placement.place("n0", "eu")  # failover moved the replica
    assert locality.is_local("n0")
