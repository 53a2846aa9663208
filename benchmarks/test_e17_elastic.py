"""E17: elastic membership — live rebalancing and queue-driven scaling.

Two claims about the elastic sharded store (ISSUE 7):

**E17a — live ring moves are safe.**  A scripted 2 -> 4 -> 2 resize
under open-loop YCSB-A traffic loses zero acknowledged writes (checked
key-by-key against the recorded history), converges afterwards, and
replays byte-identically per seed.

**E17b — the autoscaler holds the tail through a flash crowd.**  A
flash crowd saturates the static 2-shard topology: queues grow for the
whole hold, read p99 blows up toward the client timeout, and failures
pile up.  The same crowd against the same store with the
queue-driven :class:`~repro.membership.Autoscaler` attached scales out
to 4 shards mid-spike (ring moves racing the overload they are
curing), holds p99 to a fraction of the static run, and scales back
in when the crowd decays.
"""

import pytest

from common import emit
from repro import Network, Simulator
from repro.analysis import render_table
from repro.membership import Autoscaler
from repro.scenarios import run_scale_demo
from repro.sharding import ShardedStore
from repro.sim import FixedLatency, HashingTracer
from repro.workload import FlashCrowdArrivals, YCSBWorkload, run_workload

SERVICE_TIME = 1.0          # ms/request -> 1000 ops/s/node
SPIKE = 4500.0              # ops/s, ~1.5x the 2-shard capacity
TIMEOUT = 2500.0            # generous, so the tail is measured not censored


def flash_run(autoscale, seed=3, tracer=None):
    """One flash-crowd leg: static topology or autoscaled."""
    sim = Simulator(seed=seed, tracer=tracer)
    net = Network(sim, latency=FixedLatency(2.0))
    store = ShardedStore(sim, net, protocol="quorum", shards=2,
                         nodes_per_shard=3, service_time=SERVICE_TIME)
    arrivals = FlashCrowdArrivals(base=300.0, spike=SPIKE, spike_at=500.0,
                                  hold=4000.0, decay=800.0, seed=seed)
    ops = YCSBWorkload("B", records=80, seed=seed)
    scaler = None
    if autoscale:
        # Handoff ops must survive the very queues that triggered the
        # scale-out, hence the longer per-op timeout and wide copy.
        scaler = Autoscaler(
            interval=50.0, high_depth=2.0, low_depth=0.3, sustain=2,
            cooldown=300.0, min_shards=2, max_shards=6,
            move_opts=dict(op_timeout=2000.0, parallelism=16),
        )
    result = run_workload(store, ops, clients=400, arrivals=arrivals,
                          timeout=TIMEOUT, autoscaler=scaler,
                          until=7000.0, seed=seed)
    sim.run()
    return sim, store, scaler, result


def test_e17a_scripted_resize_loses_nothing(capsys):
    report = run_scale_demo(seed=42)
    emit(capsys, render_table(
        ["metric", "value"],
        [
            ["scale-out committed (ms)", round(report.scaled_out_at or -1)],
            ["scale-in committed (ms)", round(report.scaled_in_at or -1)],
            ["ops offered / ok", f"{report.offered} / {report.ok_ops}"],
            ["writes deferred mid-cutover", report.writes_rejected],
            ["keys copied / ranges flipped",
             f"{report.keys_copied} / {report.ranges_flipped}"],
            ["keys durability-checked", report.keys_checked],
            ["acked writes lost", len(report.durability_problems)],
            ["converged", report.converged],
        ],
        title="E17a: scripted 2->4->2 resize under open-loop YCSB-A "
              "(seed 42)",
    ))
    assert report.scaled
    assert report.durability_ok, report.durability_problems[:3]
    assert report.converged
    assert report.keys_copied > 0

    # Byte-identical replay: the whole scenario (gossip, moves,
    # open-loop traffic) is a pure function of the seed.
    assert run_scale_demo(seed=42).fingerprint == report.fingerprint


def test_e17b_autoscaler_holds_p99_through_flash_crowd(capsys, benchmark):
    _sim_s, _store_s, _none, static = flash_run(autoscale=False)
    sim_a, store_a, scaler, scaled = flash_run(autoscale=True)

    static_q = _sim_s.metrics.gauge("server.queue_depth_peak").value
    scaled_q = sim_a.metrics.gauge("server.queue_depth_peak").value
    rows = []
    for label, result, q in (("static (2 shards)", static, static_q),
                             ("autoscaled", scaled, scaled_q)):
        rows.append([
            label,
            result.ok,
            result.failed,
            round(result.goodput),
            round(result.read_latency.percentile(50)),
            round(result.read_latency.percentile(99)),
            round(result.write_latency.percentile(99)),
            round(q),
        ])
    emit(capsys, render_table(
        ["topology", "ok", "failed", "goodput", "p50 rd", "p99 rd",
         "p99 wr", "queue peak"],
        rows,
        title=f"E17b: flash crowd ({SPIKE:g} ops/s vs ~3000 capacity) — "
              f"static vs queue-driven autoscaling",
    ))
    actions = [action for _t, action, _n in scaler.decisions]
    emit(capsys, "autoscaler decisions: " + ", ".join(
        f"{action}@{t:g}ms->{n}" for t, action, n in scaler.decisions))

    # The crowd saturated the static topology...
    assert static.read_latency.percentile(99) > 4 * TIMEOUT / 5
    assert static.failed > 100
    # ...the autoscaler grew the ring mid-spike and shrank it after...
    assert "scale_out" in actions and "scale_in" in actions
    assert len(store_a.shard_ids) == 2
    # ...and that held the tail and the failure count way down.
    assert scaled.read_latency.percentile(99) < \
        0.5 * static.read_latency.percentile(99)
    assert scaled.failed < static.failed / 4
    assert scaled_q < static_q
    assert scaled.ok > static.ok

    benchmark.pedantic(
        run_scale_demo, kwargs=dict(seed=5, peak=3, rate=300.0, records=40,
                                    duration=900.0, scale_out_at=100.0,
                                    scale_in_at=500.0),
        rounds=2, iterations=1,
    )


def test_e17b_autoscaled_run_replays_bit_identically():
    digests = []
    for _ in range(2):
        tracer = HashingTracer()
        flash_run(autoscale=True, tracer=tracer)
        digests.append(tracer.hexdigest())
    assert digests[0] == digests[1]
