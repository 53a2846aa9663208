"""Read preferences: follower reads, locality routing, validation.

The ``read_preference`` session knob (ISSUE 8) is the API face of the
paper's read menu: ``primary`` buys authority at WAN cost, while
``local_follower``/``nearest`` buy in-region latency at staleness
risk.  These tests pin the wiring per adapter — where the session's
client lands, which replica serves its reads, and what the ``rpc.*``
locality counters record — and the validation around the knob.
"""

import pytest

from repro.api import registry
from repro.api.store import READ_PREFERENCES
from repro.placement import Placement
from repro.sim import THREE_CONTINENTS, Network, Simulator, spawn

EU = "eu"


def build(protocol, seed=5, default_region=EU, **kwargs):
    sim = Simulator(seed=seed)
    placement = Placement(THREE_CONTINENTS, default_region=default_region)
    network = Network(sim, latency=placement.latency_model(jitter=0.0))
    store = registry.build(protocol, sim, network, nodes=3,
                           placement=placement, **kwargs)
    return sim, placement, store


def run_op(sim, future):
    """Drive one session op to completion; returns (value, elapsed ms)."""
    out = {}
    start = sim.now

    def script():
        out["value"] = yield future
        out["elapsed"] = sim.now - start

    spawn(sim, script())
    sim.run()
    return out["value"], out["elapsed"]


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------

def test_read_preference_needs_a_placed_store():
    sim = Simulator(seed=1)
    network = Network(sim)
    store = registry.build("quorum", sim, network, nodes=3)
    with pytest.raises(ValueError, match="placement"):
        store.session("s", read_preference="primary")


def test_unknown_read_preference_rejected():
    _sim, _placement, store = build("quorum")
    with pytest.raises(ValueError, match="read preference"):
        store.session("s", read_preference="psychic")


def test_unknown_region_rejected():
    _sim, _placement, store = build("timeline")
    with pytest.raises(ValueError, match="unknown region"):
        store.session("s", read_preference="nearest", region="atlantis")


def test_region_required_without_default():
    _sim, _placement, store = build("primary_backup", default_region=None)
    with pytest.raises(ValueError, match="region"):
        store.session("s", read_preference="local_follower")


def test_region_blind_sessions_still_work():
    sim, _placement, store = build("quorum")
    session = store.session("plain")
    value, _ = run_op(sim, session.put("k", "v"))
    assert session.read_preference is None and session.region is None
    assert session.client.locality is None


# ----------------------------------------------------------------------
# Client placement + locality attachment
# ----------------------------------------------------------------------

@pytest.mark.parametrize("protocol", registry.names())
def test_region_contract_holds_for_every_adapter(protocol):
    """One session-opening helper under every adapter: a networked one
    places the session's client in ``region=``, the direct-attach one
    (no client node to place) refuses it, and a read preference the
    capabilities do not declare is the same ``ValueError`` everywhere —
    never a ``TypeError`` from the protocol client, never ignored."""
    _sim, placement, store = build(protocol)
    capabilities = store.capabilities
    if capabilities.networked:
        session = store.session("s", region="asia")
        assert session.region == "asia"
        assert placement.region_of(session.client_id) == "asia"
    else:
        with pytest.raises(ValueError, match="networked"):
            store.session("s", region="asia")
    undeclared = next(
        preference for preference in (*READ_PREFERENCES, "bogus")
        if preference not in capabilities.read_preferences
    )
    with pytest.raises(ValueError, match="read.preference"):
        store.session("t", read_preference=undeclared, region=EU)


@pytest.mark.parametrize("protocol", ["quorum", "timeline", "primary_backup"])
def test_session_client_is_placed_in_its_region(protocol):
    _sim, placement, store = build(protocol)
    session = store.session("s", read_preference="local_follower",
                            region=EU)
    assert placement.region_of(session.client_id) == EU


@pytest.mark.parametrize("protocol", ["quorum", "timeline", "primary_backup"])
def test_primary_preference_gets_no_locality_reorder(protocol):
    # The authoritative endpoint must stay first in failover lists even
    # when it is the remote one — primary sessions are placed but never
    # locality-sorted.
    _sim, _placement, store = build(protocol)
    session = store.session("s", read_preference="primary", region=EU)
    assert session.client.locality is None
    follower = store.session("f", read_preference="local_follower",
                             region=EU)
    assert follower.client.locality is not None


def test_quorum_local_follower_pins_in_region_coordinator():
    _sim, placement, store = build("quorum")
    session = store.session("s", read_preference="local_follower",
                            region=EU)
    assert placement.region_of(session.client.coordinator) == EU


# ----------------------------------------------------------------------
# Follower reads actually stay off the WAN
# ----------------------------------------------------------------------

@pytest.mark.parametrize("protocol", ["timeline", "primary_backup"])
def test_local_follower_read_is_in_region_fast(protocol):
    sim, _placement, store = build(protocol)
    writer = store.session("w", read_preference="primary", region=EU)
    run_op(sim, writer.put("k", "v1"))
    if hasattr(store, "settle"):
        store.settle()
        sim.run()

    local = store.session("r", read_preference="local_follower", region=EU)
    (value, _stamp), elapsed = run_op(sim, local.get("k"))
    assert value == "v1"
    # Client and serving replica both sit in the EU: no 40ms+ WAN hop.
    assert elapsed < 10.0

    remote = store.session("p", read_preference="primary", region=EU)
    (value, _stamp), remote_elapsed = run_op(sim, remote.get("k"))
    assert value == "v1"
    # The authoritative replica lives in us-east: one WAN round trip.
    assert remote_elapsed >= 2 * 40.0
    assert elapsed < remote_elapsed


def test_locality_counters_classify_attempts():
    sim, _placement, store = build("timeline")
    session = store.session("r", read_preference="local_follower",
                            region=EU)
    run_op(sim, session.put("k", "v"))
    run_op(sim, session.get("k"))
    local = sim.metrics.counter("rpc.attempts_local").value
    remote = sim.metrics.counter("rpc.attempts_remote").value
    # The read stays in-region; the write forwards toward the master.
    assert local >= 1
    assert local + remote >= 2


def test_region_blind_runs_never_create_locality_counters():
    sim, _placement, store = build("quorum")
    session = store.session("plain")
    run_op(sim, session.put("k", "v"))
    # Lazily-created counters would change metric snapshots (and hence
    # trace fingerprints) of every pre-existing region-blind scenario.
    assert "rpc.attempts_local" not in sim.metrics
    assert "rpc.attempts_remote" not in sim.metrics


def test_pb_follower_reads_survive_promotion_without_reopening():
    sim, placement, store = build("primary_backup", mode="async")
    writer = store.session("w", read_preference="primary", region=EU)
    run_op(sim, writer.put("k", "v1"))
    store.settle()
    sim.run()

    follower = store.session("r", read_preference="local_follower",
                             region=EU)
    (value, _), _ = run_op(sim, follower.get("k"))
    assert value == "v1"

    # Fail over to the EU replica: the same session keeps reading (the
    # serving replica is re-resolved per read, not baked in at open).
    eu_replica = next(
        r for r in store.cluster.replicas
        if placement.region_of(r.node_id) == EU
    )
    store.cluster.promote(eu_replica)
    (value, _), elapsed = run_op(sim, follower.get("k"))
    assert value == "v1"
    assert elapsed < 10.0
