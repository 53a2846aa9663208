"""Live ring moves: scale-out, scale-in, handoff safety, determinism."""

import pytest

from repro.checkers import (
    MISSING,
    check_convergence,
    check_no_lost_writes,
    read_back,
)
from repro.errors import OverloadedError, SimulationError
from repro.histories import TokenHistoryRecorder
from repro.scenarios import run_scale_demo
from repro.sharding import RingMove, ShardedStore
from repro.sharding.handoff import DRAIN_MS
from repro.sim import FixedLatency, HashingTracer, Network, Simulator, spawn
from repro.workload import YCSBWorkload, run_workload


def build(seed=7, shards=2, tracer=None, **kwargs):
    sim = Simulator(seed=seed, tracer=tracer)
    net = Network(sim, latency=FixedLatency(2.0))
    store = ShardedStore(sim, net, protocol="quorum", shards=shards,
                         nodes_per_shard=3, **kwargs)
    return sim, net, store


def seed_keys(sim, store, count, recorder=None, prefix="k"):
    """Write ``count`` keys through one routed session; returns the
    recorded history (or None without a recorder)."""
    session = store.session("writer")
    rec = recorder

    def script():
        for i in range(count):
            key = f"{prefix}{i}"
            if rec is not None:
                handle = rec.begin("write", key, "writer")
            token = yield session.put(key, f"v-{key}")
            if rec is not None:
                rec.complete_token(handle, token, f"v-{key}")

    process = spawn(sim, script())
    sim.run()
    assert process.error is None
    return rec.history() if rec is not None else None


# ----------------------------------------------------------------------
# Scale-out / scale-in move data and lose nothing
# ----------------------------------------------------------------------

def test_scale_out_moves_keys_and_loses_no_acked_write():
    sim, _net, store = build()
    recorder = TokenHistoryRecorder(sim)
    history = seed_keys(sim, store, 40, recorder)

    move = store.add_shard()
    sim.run()
    assert not move.failed
    assert "shard2" in store.ring.nodes
    assert sim.metrics.counter("handoff.keys_copied").value > 0
    # Every key reads back and matches its acked write.
    final = read_back(store, [f"k{i}" for i in range(40)])
    assert MISSING not in final.values()
    verdict = check_no_lost_writes(history, final)
    assert verdict.ok, verdict.violations[:3]
    assert check_convergence(store.snapshots()).ok
    # The newcomer actually owns (and serves) part of the keyspace.
    owned = [k for k in final if store.shard_of(k) == "shard2"]
    assert owned


def test_scale_in_drains_the_shard_and_retires_its_cluster():
    sim, net, store = build(shards=3)
    recorder = TokenHistoryRecorder(sim)
    history = seed_keys(sim, store, 40, recorder)
    victim = store.shard_ids[-1]
    victim_nodes = store.shards[victim].server_ids()

    move = store.decommission_shard(victim)
    sim.run()
    assert not move.failed
    assert victim not in store.ring.nodes
    assert victim not in store.shards
    # Retired nodes are crashed so stray traffic cannot resurrect them.
    assert all(net.node(n).crashed for n in victim_nodes)

    final = read_back(store, [f"k{i}" for i in range(40)])
    verdict = check_no_lost_writes(history, final)
    assert verdict.ok, verdict.violations[:3]
    assert check_convergence(store.snapshots()).ok


def test_writes_racing_a_scale_out_survive_it():
    sim, _net, store = build(seed=13)
    recorder = TokenHistoryRecorder(sim)
    seed_keys(sim, store, 30, recorder)

    session = store.session("racer")
    outcomes = {"ok": 0, "rejected": 0}

    def rewrite():
        # Overwrite every key while the move runs; handoff must carry
        # the newest value (delta passes + tail sweep), and a write
        # rejected mid-cutover surfaces as a retryable overload.
        for i in range(30):
            key = f"k{i}"
            handle = recorder.begin("write", key, "racer")
            try:
                token = yield session.put(key, f"new-{i}")
            except OverloadedError:
                recorder.fail(handle, value=f"new-{i}")
                outcomes["rejected"] += 1
            else:
                recorder.complete_token(handle, token, f"new-{i}")
                outcomes["ok"] += 1
            yield 3.0

    move = store.add_shard()
    process = spawn(sim, rewrite())
    sim.run()
    assert process.error is None
    assert not move.failed
    assert outcomes["ok"] > 0

    final = read_back(store, [f"k{i}" for i in range(30)])
    verdict = check_no_lost_writes(recorder.history(), final)
    assert verdict.ok, verdict.violations[:3]
    assert check_convergence(store.snapshots()).ok


def test_a_multipaxos_shard_set_resizes_under_load():
    # The new shard's group is built mid-run: its election cannot run
    # to completion in a nested ``sim.run()``, so it runs alongside the
    # workload and the handoff retries past NotLeaderError until it is
    # done.
    sim = Simulator(seed=3)
    net = Network(sim, latency=FixedLatency(2.0))
    store = ShardedStore(sim, net, protocol="multipaxos", shards=2,
                         nodes_per_shard=3)
    resized = []
    sim.schedule(50.0, lambda: resized.append(store.resize(3)))
    ops = list(YCSBWorkload("A", records=50, seed=3).take(400))
    result = run_workload(store, ops, clients=4, timeout=2_000.0)
    future, = resized
    assert future.value == 3 and len(store.shard_ids) == 3
    assert result.ops_ok >= 390
    keys = sorted({op.key for op in ops})
    verdict = check_no_lost_writes(result.history, read_back(store, keys))
    assert verdict.ok, verdict.violations[:3]


# ----------------------------------------------------------------------
# Router mechanics
# ----------------------------------------------------------------------

def test_frozen_range_rejects_writes_with_retry_after():
    sim, _net, store = build()
    seed_keys(sim, store, 10)
    # Freeze shard0's moving range by hand: put() must fail fast with
    # a retryable overload carrying the drain as retry_after.
    move = RingMove(store, "join", "shard2")
    store.shards["shard2"] = store._build_shard("shard2")
    store.shard_ids.append("shard2")
    store._move = move
    move.frozen = "shard0"
    frozen_key = next(
        k for k in (f"f{i}" for i in range(1000))
        if move.moved(k) and move.counterpart(k) == "shard0"
    )
    future = store.session("w").put(frozen_key, 1)
    sim.run()
    assert isinstance(future.error, OverloadedError)
    assert future.error.retry_after == DRAIN_MS
    assert sim.metrics.counter("handoff.writes_rejected").value == 1
    # Reads on the frozen range keep working against the donor.
    read = store.session("r").get(frozen_key)
    sim.run()
    assert read.error is None


def test_one_move_at_a_time():
    sim, _net, store = build()
    store.add_shard()
    with pytest.raises(SimulationError):
        store.add_shard()
    with pytest.raises(SimulationError):
        store.decommission_shard()
    sim.run()   # let the first move finish


def test_cannot_decommission_the_last_shard():
    sim, _net, store = build(shards=1)
    with pytest.raises(ValueError):
        store.decommission_shard("shard0")


def test_resize_chains_moves_to_the_target():
    sim, _net, store = build()
    seed_keys(sim, store, 20)
    future = store.resize(4)
    sim.run()
    assert future.value == 4
    assert len(store.shard_ids) == 4
    assert sorted(store.ring.nodes) == sorted(store.shard_ids)

    back = store.resize(2)
    sim.run()
    assert back.value == 2
    assert len(store.shard_ids) == 2
    assert check_convergence(store.snapshots()).ok


def test_sessions_survive_a_decommission_of_their_shard():
    # Satellite: the session's cached sub-session for a retired shard
    # must be dropped on the epoch bump, not used to route to a corpse.
    sim, _net, store = build(shards=2)
    session = store.session("sticky")
    seed_keys(sim, store, 20)

    def warm():
        for i in range(20):
            yield session.put(f"k{i}", f"warm-{i}")

    process = spawn(sim, warm())
    sim.run()
    assert process.error is None

    store.decommission_shard("shard1")
    sim.run()

    def after():
        for i in range(20):
            value, _token = yield session.get(f"k{i}")
            assert value == f"warm-{i}", (i, value)

    process = spawn(sim, after())
    sim.run()
    assert process.error is None
    assert all(sid == "shard0" for sid in
               (store.shard_of(f"k{i}") for i in range(20)))


def test_ring_epoch_bumps_on_flips_and_commit():
    sim, _net, store = build()
    seed_keys(sim, store, 10)
    epoch = store.ring_epoch
    version = store.ring.version
    move = store.add_shard()
    sim.run()
    # One bump per flipped range plus one for the ring commit.
    assert store.ring_epoch == epoch + len(move.fingerprints) + 1
    assert store.ring.version == version + 1


# ----------------------------------------------------------------------
# Determinism + the end-to-end demo
# ----------------------------------------------------------------------

DEMO_KNOBS = dict(seed=5, peak=3, rate=300.0, records=40, duration=900.0,
                  scale_out_at=100.0, scale_in_at=500.0)


def test_scale_demo_passes_and_replays_bit_identically():
    first = run_scale_demo(**DEMO_KNOBS)
    assert first.scaled
    assert first.durability_ok, first.durability_problems[:3]
    assert first.converged
    assert first.keys_copied > 0 and first.ranges_flipped > 0
    again = run_scale_demo(**DEMO_KNOBS)
    assert again.fingerprint == first.fingerprint
    other = run_scale_demo(**{**DEMO_KNOBS, "seed": 6})
    assert other.fingerprint != first.fingerprint


def test_ring_moves_are_trace_clean():
    # Regression: handoff annotations once shadowed the tracer's
    # reserved ``kind`` argument and killed the move under tracing.
    tracer = HashingTracer()
    sim, _net, store = build(tracer=tracer)
    seed_keys(sim, store, 15)
    move = store.add_shard()
    sim.run()
    assert not move.failed
    assert move.process.error is None
    assert tracer.hexdigest()
