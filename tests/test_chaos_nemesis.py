"""Tests for the Nemesis: determinism, fault mechanics, heal/quiesce."""

import pytest

from repro.api import registry
from repro.chaos import PLANS, FaultPlan, Nemesis, step
from repro.checkers import check_convergence
from repro.errors import SimulationError
from repro.sim import FixedLatency, HashingTracer, Network, Simulator
from repro.workload import YCSBWorkload, run_workload


def chaos_run(protocol="quorum", plan=None, seed=42, nemesis_seed=None,
              ops=60, heal=True):
    """One traced workload-under-nemesis run; returns a result bundle."""
    tracer = HashingTracer()
    sim = Simulator(seed=seed, tracer=tracer)
    network = Network(sim, latency=FixedLatency(2.0))
    store = registry.build(protocol, sim, network, nodes=5)
    nemesis = None
    if plan is not None:
        nemesis = Nemesis(plan, seed=nemesis_seed)
    workload = YCSBWorkload("A", records=16, seed=seed)
    result = run_workload(store, workload.take(ops), clients=2,
                          timeout=250.0, think_time=2.0, nemesis=nemesis)
    if nemesis is not None and heal:
        nemesis.heal_all()
        sim.run()
        store.settle()
        sim.run()
    return sim, network, store, nemesis, result, tracer


# ----------------------------------------------------------------------
# Determinism (satellite: fixed-seed plan -> byte-identical traces)
# ----------------------------------------------------------------------

def test_fixed_seed_plan_gives_identical_trace_fingerprints():
    runs = [chaos_run(plan=PLANS["mixed"])[-1].hexdigest()
            for _ in range(2)]
    assert runs[0] == runs[1]


def test_nemesis_seed_changes_the_trace():
    a = chaos_run(plan=PLANS["mixed"], nemesis_seed=1)[-1].hexdigest()
    b = chaos_run(plan=PLANS["mixed"], nemesis_seed=2)[-1].hexdigest()
    assert a != b


def test_empty_plan_nemesis_does_not_perturb_the_workload():
    # The nemesis draws from its own RNG, so installing one that never
    # fires must reproduce the fault-free run bit for bit.
    bare = chaos_run(plan=None)[-1].hexdigest()
    noop = chaos_run(plan=FaultPlan("empty", ()), heal=False)[-1].hexdigest()
    assert bare == noop


@pytest.mark.parametrize("name", sorted(PLANS))
def test_every_builtin_plan_replays_identically(name):
    a = chaos_run(plan=PLANS[name])[-1].hexdigest()
    b = chaos_run(plan=PLANS[name])[-1].hexdigest()
    assert a == b


# ----------------------------------------------------------------------
# Heal + quiesce restores convergence (satellite)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("protocol", [
    name for name in registry.names()
    if registry.get(name).capabilities.eventually_convergent
])
def test_heal_and_settle_restore_convergence(protocol):
    _sim, _net, store, _nem, _res, _tr = chaos_run(
        protocol=protocol, plan=PLANS["mixed"], ops=40)
    verdict = check_convergence(store.snapshots())
    assert verdict.ok, verdict.violations[:3]


# ----------------------------------------------------------------------
# Fault mechanics
# ----------------------------------------------------------------------

def test_partition_drops_use_the_partition_counter():
    sim, network, *_ = chaos_run(plan=PLANS["partitions"])
    dropped = sim.metrics.counters("net.messages_dropped_")
    assert (dropped["net.messages_dropped_partition"]
            + dropped["net.messages_dropped_link"]) > 0
    # FixedLatency has no background loss: nothing may leak into the
    # generic loss bucket (dedicated counters, satellite fix).
    assert dropped["net.messages_dropped_loss"] == 0


def test_link_faults_use_the_dedicated_link_counter():
    sim = Simulator(seed=3)
    network = Network(sim, latency=FixedLatency(2.0))
    store = registry.build("quorum", sim, network, nodes=3)
    servers = list(store.server_ids())
    for i, a in enumerate(servers):
        for b in servers[i + 1:]:
            network.set_link_fault(a, b, drop_rate=0.99)
    workload = YCSBWorkload("A", records=8, seed=3)
    run_workload(store, workload.take(20), clients=1, timeout=100.0)
    assert sim.metrics.counter("net.messages_dropped_link").value > 0
    assert sim.metrics.counter("net.messages_dropped_loss").value == 0
    assert sim.metrics.counter("net.messages_dropped_partition").value == 0


def test_crash_never_kills_the_last_server():
    plan = FaultPlan("carnage", tuple(
        step("crash", at=float(t), target="random")
        for t in range(10, 100, 10)
    ))
    _sim, _net, store, nemesis, _res, _tr = chaos_run(
        plan=plan, heal=False)
    alive = [s for s in store.server_ids() if s not in nemesis.crashed]
    assert len(alive) >= 1
    assert len(nemesis.crashed) == len(store.server_ids()) - 1


def test_coordinator_crash_targets_the_leader():
    sim = Simulator(seed=7)
    network = Network(sim, latency=FixedLatency(2.0))
    store = registry.build("primary_backup", sim, network, nodes=3)
    plan = FaultPlan("regicide", (
        step("crash", at=5.0, target="coordinator"),
    ))
    nemesis = Nemesis(plan)
    primary = store.cluster.primary.node_id
    nemesis.install(store)
    # Nemesis events are daemons; keep the sim alive past the fault.
    sim.schedule(10.0, lambda: None)
    sim.run()
    assert nemesis.crashed == {primary}


def test_clock_skew_sets_offset_and_heal_all_clears_it():
    plan = FaultPlan("skew", (
        step("clock_skew", at=5.0, offset_ms=30.0),
    ))
    sim, network, store, nemesis, _res, _tr = chaos_run(
        plan=plan, heal=False)
    assert nemesis.skewed
    node = network.node(next(iter(nemesis.skewed)))
    assert node.clock_offset == 30.0
    assert node.local_time() == sim.now + 30.0
    nemesis.heal_all()
    assert node.clock_offset == 0.0
    assert not nemesis.skewed


def region_store(seed=2):
    from repro.placement import Placement
    from repro.sim import THREE_CONTINENTS

    sim = Simulator(seed=seed)
    placement = Placement(THREE_CONTINENTS, default_region="eu")
    network = Network(sim, latency=placement.latency_model(jitter=0.0))
    store = registry.build("quorum", sim, network, nodes=3,
                           placement=placement)
    return sim, network, placement, store


def test_region_partition_cuts_the_whole_region_off():
    sim, network, placement, store = region_store()
    plan = FaultPlan("regional", (
        step("region_partition", at=5.0, region="us-east"),
    ))
    nemesis = Nemesis(plan)
    nemesis.install(store)
    sim.schedule(10.0, lambda: None)
    sim.run()
    assert network.partitioned
    lost = placement.nodes_in("us-east",
                              within=store.cluster.ring.nodes)
    survivors = [n for n in store.cluster.ring.nodes if n not in lost]
    for gone in lost:
        for alive in survivors:
            assert not network.reachable(gone, alive)
    for a in survivors:
        for b in survivors:
            assert network.reachable(a, b)
    nemesis.heal_all()
    assert not network.partitioned


def test_region_partition_on_unplaced_store_is_a_noop():
    sim = Simulator(seed=1)
    network = Network(sim, latency=FixedLatency(2.0))
    store = registry.build("quorum", sim, network, nodes=3)
    plan = FaultPlan("regional", (
        step("region_partition", at=5.0, region="us-east"),
    ))
    nemesis = Nemesis(plan)
    nemesis.install(store)
    sim.schedule(10.0, lambda: None)
    sim.run()
    assert not network.partitioned
    # The skip is visible in the trace counters, not silent.
    assert sim.metrics.counter("chaos.region_partition").value == 1


def test_region_partition_with_empty_region_is_a_noop():
    sim, network, _placement, store = region_store()
    # No node is placed in the chosen region once we aim at a region
    # whose nodes were never registered on this network.
    plan = FaultPlan("regional", (
        step("region_partition", at=5.0, region="asia"),
    ))
    # Re-place asia's replica into eu so asia is empty.
    placement = store.placement
    for node in placement.nodes_in("asia"):
        placement.place(node, "eu")
    nemesis = Nemesis(plan)
    nemesis.install(store)
    sim.schedule(10.0, lambda: None)
    sim.run()
    assert not network.partitioned


def test_region_partition_picks_a_region_deterministically_when_unset():
    digests = []
    for _ in range(2):
        sim, network, _placement, store = region_store(seed=9)
        plan = FaultPlan("regional", (step("region_partition", at=5.0),))
        nemesis = Nemesis(plan, seed=4)
        nemesis.install(store)
        sim.schedule(10.0, lambda: None)
        sim.run()
        groups = [
            tuple(sorted(
                n for n in store.cluster.ring.nodes
                if not network.reachable(n, store.cluster.ring.nodes[0])
            ))
        ]
        digests.append(tuple(groups))
        assert network.partitioned
    assert digests[0] == digests[1]


def test_heal_all_recovers_crashed_nodes():
    _sim, _net, store, nemesis, _res, _tr = chaos_run(
        plan=PLANS["crashes"], heal=False)
    nemesis.heal_all()
    assert not nemesis.crashed
    store.sim.run()
    store.settle()
    store.sim.run()
    assert check_convergence(store.snapshots()).ok


def test_repeating_step_respects_until():
    plan = FaultPlan("ticker", (
        step("clock_skew", every=20.0, until=100.0, max_ms=10.0),
    ))
    sim, *_ = chaos_run(plan=plan, ops=80, heal=False)
    fired = sim.metrics.counter("chaos.clock_skew").value
    assert 1 <= fired <= 5  # every 20ms within [0, 100] of install


def test_nemesis_cannot_install_twice():
    sim = Simulator(seed=1)
    network = Network(sim, latency=FixedLatency(2.0))
    store = registry.build("quorum", sim, network, nodes=3)
    nemesis = Nemesis(PLANS["partitions"])
    nemesis.install(store)
    with pytest.raises(SimulationError):
        nemesis.install(store)


def test_stop_cancels_pending_faults():
    sim = Simulator(seed=1)
    network = Network(sim, latency=FixedLatency(2.0))
    store = registry.build("quorum", sim, network, nodes=3)
    nemesis = Nemesis(PLANS["partitions"])
    nemesis.install(store)
    nemesis.stop()
    sim.run()
    assert sim.metrics.counter("chaos.steps").value == 0
    assert not network.partitioned
