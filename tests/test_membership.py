"""Membership layer: phi-accrual detector + gossip service."""

import pytest

from repro.membership import (
    ALIVE,
    DEAD,
    MembershipService,
    PhiAccrualDetector,
)
from repro.sharding import ShardedStore
from repro.sim import FixedLatency, HashingTracer, Network, Simulator


# ----------------------------------------------------------------------
# Detector unit tests (pure function of fed-in timestamps)
# ----------------------------------------------------------------------

def test_detector_refuses_to_suspect_before_min_samples():
    det = PhiAccrualDetector(min_samples=3)
    det.heartbeat(0.0)
    det.heartbeat(10.0)
    # Two arrivals = one interval < min_samples: no evidence, no phi.
    assert det.phi(1000.0) == 0.0
    assert det.mean_interval() is None


def test_detector_phi_grows_with_silence():
    det = PhiAccrualDetector(min_samples=3)
    for t in range(0, 100, 10):
        det.heartbeat(float(t))
    assert det.mean_interval() == pytest.approx(10.0)
    # Fresh heartbeat: barely suspicious; long silence: very.
    assert det.phi(95.0) < 0.5
    assert det.phi(90.0 + 100.0) > 4.0
    # Monotone in elapsed time.
    assert det.phi(120.0) < det.phi(150.0) < det.phi(300.0)


def test_detector_interval_floor_caps_burst_paranoia():
    # Back-to-back heartbeats would estimate a ~0 mean interval and
    # make any later silence look fatal; the floor prevents that.
    det = PhiAccrualDetector(min_samples=3, min_interval_floor=5.0)
    for t in (0.0, 0.001, 0.002, 0.003):
        det.heartbeat(t)
    assert det.mean_interval() == 5.0


def test_detector_reset_forgets_history():
    det = PhiAccrualDetector(min_samples=3)
    for t in range(0, 50, 10):
        det.heartbeat(float(t))
    det.reset()
    assert det.last_heartbeat is None
    assert det.phi(1000.0) == 0.0


# ----------------------------------------------------------------------
# Gossip service over a live sharded store
# ----------------------------------------------------------------------

def build(seed=7, shards=2, tracer=None):
    sim = Simulator(seed=seed, tracer=tracer)
    net = Network(sim, latency=FixedLatency(2.0))
    store = ShardedStore(sim, net, protocol="quorum", shards=shards,
                         nodes_per_shard=3)
    membership = MembershipService(sim, seed=seed)
    store.attach_membership(membership)
    membership.start()
    return sim, net, store, membership


def run_for(sim, ms):
    # Gossip ticks are daemons; a foreground no-op keeps run() alive.
    sim.schedule(ms, lambda: None)
    sim.run()


def test_quiet_cluster_is_all_alive_with_no_transitions():
    sim, _net, store, membership = build()
    run_for(sim, 2000.0)
    statuses = membership.statuses()
    assert set(statuses) == set(store.server_ids())
    assert all(status == ALIVE for status in statuses.values())
    # Tuning regression: a fault-free run must not flap through
    # suspect/alive — flapping pollutes traces and stalls autoscaling.
    assert sim.metrics.counter("membership.transitions").value == 0
    assert membership.suspected() == []


def test_crashed_node_is_declared_dead_then_recovers():
    sim, net, store, membership = build()
    victim = store.server_ids()[0]
    run_for(sim, 1000.0)                    # detectors warm up
    net.node(victim).crash()
    run_for(sim, 1500.0)
    assert membership.statuses()[victim] == DEAD
    assert victim in membership.suspected()
    assert sim.metrics.gauge("membership.dead").value >= 1

    net.node(victim).recover()
    run_for(sim, 1500.0)
    assert membership.statuses()[victim] == ALIVE
    assert membership.suspected() == []


def test_single_observer_cannot_condemn_a_node():
    # statuses() takes a majority of non-crashed observers; one node's
    # stale view must not mark a healthy peer dead.
    sim, net, store, membership = build()
    run_for(sim, 1000.0)
    observer = store.server_ids()[0]
    peer = store.server_ids()[1]
    view = membership._views[observer][peer]
    view.detector.reset()
    view.detector.heartbeat(0.0)
    view.detector.heartbeat(1.0)
    view.detector.heartbeat(2.0)
    view.detector.heartbeat(3.0)            # mean ~1ms, silence = huge phi
    assert membership.view(observer)[peer] == DEAD
    assert membership.statuses()[peer] == ALIVE


def test_forget_drops_node_from_every_view():
    sim, _net, store, membership = build()
    run_for(sim, 500.0)
    victim = store.server_ids()[-1]
    membership.forget(victim)
    assert victim not in membership.statuses()
    for observer_id in list(membership._views):
        assert victim not in membership._views[observer_id]
    run_for(sim, 500.0)                     # keeps gossiping fine
    assert set(membership.statuses()) == \
        set(store.server_ids()) - {victim}


def test_gossip_does_not_keep_the_simulation_alive():
    sim, _net, _store, _membership = build()
    sim.run()                               # daemons only: returns at once
    assert sim.now == 0.0


def test_gossip_replays_bit_identically_per_seed():
    digests = []
    for _ in range(2):
        tracer = HashingTracer()
        sim, _net, _store, _membership = build(seed=11, tracer=tracer)
        run_for(sim, 1200.0)
        digests.append(tracer.hexdigest())
    assert digests[0] == digests[1]

    tracer = HashingTracer()
    sim, _net, _store, _membership = build(seed=12, tracer=tracer)
    run_for(sim, 1200.0)
    assert tracer.hexdigest() != digests[0]
