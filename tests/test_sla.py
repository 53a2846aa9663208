"""Tests for the Pileus-style consistency-SLA layer."""

import pytest

from repro.placement import Placement
from repro.replication import TimelineCluster
from repro.sim import THREE_CONTINENTS, Network, Simulator, spawn
from repro.sla import (
    PASSWORD_CHECKING,
    SHOPPING_CART,
    SLA,
    WEB_CONTENT,
    Consistency,
    ReplicaMonitor,
    SLAClient,
    SubSLA,
)
from repro.sla.pileus import (
    ALPHA,
    DEFAULT_LAG,
    DEFAULT_LATENCY,
    FixedTargetSLAClient,
)


def make_geo(seed=0, client_site="eu", propagation_delay=50.0):
    """Timeline cluster with the master near us-east and a client at
    ``client_site``: nearby replica is laggy, master is far."""
    sim = Simulator(seed=seed)
    placement = Placement(THREE_CONTINENTS)
    for node, site in {"tl0": "us-east", "tl1": "eu", "tl2": "asia",
                       "tlclient-1": client_site, "tl0-fwd": "us-east"}.items():
        placement.place(node, site)
    net = Network(sim, latency=placement.latency_model(jitter=0.05))
    cluster = TimelineCluster(sim, net, nodes=3,
                              propagation_delay=propagation_delay)
    client = cluster.connect(home="tl1")
    return sim, net, cluster, client


# ----------------------------------------------------------------------
# SLA value objects
# ----------------------------------------------------------------------

def test_subsla_validation():
    with pytest.raises(ValueError):
        SubSLA(Consistency.EVENTUAL, -1.0, 1.0)
    with pytest.raises(ValueError):
        SubSLA(Consistency.EVENTUAL, 10.0, -0.5)
    with pytest.raises(ValueError):
        SubSLA(Consistency.BOUNDED, 10.0, 1.0)  # missing staleness bound


def test_sla_needs_subslas():
    with pytest.raises(ValueError):
        SLA("empty", ())


def test_builtin_slas_are_well_formed():
    for sla in (PASSWORD_CHECKING, SHOPPING_CART, WEB_CONTENT):
        assert len(sla.subslas) >= 1
        utilities = [s.utility for s in sla]
        assert utilities == sorted(utilities, reverse=True)


# ----------------------------------------------------------------------
# Monitor
# ----------------------------------------------------------------------

def test_monitor_ewma_converges_toward_samples():
    monitor = ReplicaMonitor()
    assert monitor.predicted_latency("r") == DEFAULT_LATENCY
    monitor.observe_latency("r", 100.0)
    monitor.observe_latency("r", 100.0)
    assert monitor.predicted_latency("r") == pytest.approx(100.0)
    monitor.observe_latency("r", 0.0)
    assert monitor.predicted_latency("r") == pytest.approx(100.0 * (1 - ALPHA))


def test_monitor_lag_tracking():
    monitor = ReplicaMonitor()
    assert monitor.predicted_lag("r") == DEFAULT_LAG
    monitor.observe_lag("r", 80.0)
    assert monitor.predicted_lag("r") == 80.0


# ----------------------------------------------------------------------
# Target selection + reads
# ----------------------------------------------------------------------

def test_strong_sla_goes_to_master():
    sim, _net, cluster, raw = make_geo()
    client = SLAClient(raw)
    master = cluster.master_of("account")
    target, rank = client.select_target("account", PASSWORD_CHECKING)
    assert target == master


def test_eventual_sla_prefers_nearest_replica():
    sim, _net, cluster, raw = make_geo()
    client = SLAClient(raw)
    # Teach the monitor the real latencies (EU client: tl1 is local).
    client.monitor.observe_latency("tl0", 80.0)
    client.monitor.observe_latency("tl1", 1.0)
    client.monitor.observe_latency("tl2", 240.0)
    client.monitor.observe_lag("tl1", 10.0)
    lazy = SLA("lazy", (SubSLA(Consistency.EVENTUAL, 100.0, 1.0),))
    target, _rank = client.select_target("key", lazy)
    assert target == "tl1"


def test_read_returns_outcome_with_utility():
    sim, _net, cluster, raw = make_geo(propagation_delay=5.0)
    client = SLAClient(raw)
    out = {}

    def script():
        yield client.write("k", "v")
        yield 100.0
        outcome = yield client.read("k", WEB_CONTENT)
        out["outcome"] = outcome

    spawn(sim, script())
    sim.run()
    outcome = out["outcome"]
    assert outcome.value == "v"
    assert outcome.utility > 0
    assert outcome.latency > 0
    assert client.average_utility() == outcome.utility


def test_ryw_sla_scores_zero_on_stale_reply():
    sim, _net, cluster, raw = make_geo(propagation_delay=10_000.0)
    client = SLAClient(raw)
    # Pin the monitor so the selector (wrongly) trusts the EU replica,
    # then verify scoring catches the miss.
    client.monitor.observe_lag("tl1", 0.0)
    client.monitor.observe_latency("tl1", 1.0)
    out = {}

    def script():
        yield client.write("k", "v")
        outcome = yield client.read(
            "k",
            SLA("rmw-only", (SubSLA(Consistency.READ_MY_WRITES, 500.0, 1.0),)),
        )
        out["outcome"] = outcome

    spawn(sim, script())
    sim.run(until=2_000.0)
    outcome = out["outcome"]
    if outcome.replica == "tl1":          # stale nearby replica answered
        assert outcome.utility == 0.0
    else:                                  # selector went to the master
        assert outcome.utility == 1.0


def test_monotonic_sla_scores_a_step_back_as_eventual():
    """A reply older than the session's last read breaks monotonic
    reads, so it earns only the eventual sub-SLA's utility."""
    sim, _net, cluster, raw = make_geo(propagation_delay=10_000.0)
    master = cluster.master_of("k")
    laggard = next(n for n in cluster.node_ids if n != master)
    sla = SLA("monotonic", (SubSLA(Consistency.MONOTONIC, 1_000.0, 1.0),
                            SubSLA(Consistency.EVENTUAL, 1_000.0, 0.1)))
    # Both SLA clients read through one protocol client, so they share
    # its session token.
    at_master = FixedTargetSLAClient(raw, master)
    at_laggard = FixedTargetSLAClient(raw, laggard)
    out = {}

    def script():
        yield raw.write("k", "v1")
        out["first"] = yield at_master.read("k", sla)
        out["second"] = yield at_laggard.read("k", sla)

    spawn(sim, script())
    sim.run(until=5_000.0)
    assert (out["first"].version, out["first"].utility) == (1, 1.0)
    assert (out["second"].version, out["second"].utility) == (0, 0.1)


def test_average_utility_empty():
    sim, _net, _cluster, raw = make_geo()
    assert SLAClient(raw).average_utility() == 0.0


def test_sla_adaptivity_beats_fixed_master_for_lax_sla():
    """With a latency-sensitive SLA and a warm monitor, SLA-driven
    reads collect more utility than always going to the (far) master."""
    def run(use_sla_selection):
        sim, _net, cluster, raw = make_geo(seed=3, propagation_delay=5.0)
        client = SLAClient(raw)
        # Warm the monitor with the true latencies.
        client.monitor.observe_latency("tl0", 82.0)
        client.monitor.observe_latency("tl1", 2.0)
        client.monitor.observe_latency("tl2", 242.0)
        client.monitor.observe_lag("tl1", 5.0)
        client.monitor.observe_lag("tl2", 5.0)
        total = {}

        def script():
            yield client.write("page", "content")
            yield 200.0
            for _ in range(10):
                if use_sla_selection:
                    yield client.read("page", WEB_CONTENT)
                else:
                    # Force master reads (strong-only SLA).
                    yield client.read(
                        "page",
                        SLA("strong", (SubSLA(Consistency.STRONG, 60.0, 1.0),
                                       SubSLA(Consistency.STRONG, 1e9, 0.3))),
                    )
                yield 10.0
            total["utility"] = client.average_utility()

        spawn(sim, script())
        sim.run()
        return total["utility"]

    assert run(True) > run(False)
