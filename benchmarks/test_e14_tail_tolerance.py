"""E14: tail tolerance — availability via client-side redundancy.

The taxonomy's availability axis (E5) showed *protocols* differ under
partition; this experiment shows the *client* can buy availability and
tail latency on top of any of them.  Claims:

(a) under a heavy-tailed network plus one straggler replica, hedged
    quorum reads (speculative duplicate after ``hedge_after`` ms) cut
    p99 latency vs. the same workload unhedged — the classic
    "tail at scale" result, here measured in the simulator;
(b) a retry policy with endpoint failover keeps a quorum store
    serving through a coordinator crash, where a policy-less client
    pinned to the same coordinator just times out.

Both scenarios run through the registry + workload driver, and the
``rpc.*`` metrics published by the RPC engine are asserted alongside
the latency shapes.  A fixed-seed traced run is hashed twice to pin
down that retry jitter (drawn from the sim RNG) stays deterministic —
the property the CI determinism job guards.
"""

import hashlib

from common import emit
from repro import Network, RetryPolicy, Simulator
from repro.analysis import render_table
from repro.api import registry
from repro.sim import FixedLatency, LogNormalLatency, Tracer
from repro.workload import OpSpec, WorkloadDriver

KEYS = 8
READ_ROUNDS = 30            # reads per session in the tail scenario
STRAGGLER_SERVICE = 40.0    # ms of service time at the slow replica
HEDGE_AFTER = 10.0          # ms of silence before the speculative copy
FAILOVER_OPS = 16           # writes in the failover scenario
CRASH_AT = 150.0            # ms into the failover run


def build_quorum(sim, latency):
    net = Network(sim, latency=latency)
    return registry.build("quorum", sim, net, nodes=5, n=3, r=2, w=2)


# ---------------------------------------------------------------------------
# (a) hedged vs. unhedged reads under a straggler
# ---------------------------------------------------------------------------

def run_tail(hedged, seed=3, tracer=None):
    """Five sessions, one pinned per coordinator; one coordinator is a
    straggler.  Returns the driver result (read latencies included)."""
    sim = Simulator(seed=seed, tracer=tracer)
    store = build_quorum(sim, LogNormalLatency(median=2.0, sigma=0.6))
    nodes = store.server_ids()
    store.replica(nodes[-1]).service_time = STRAGGLER_SERVICE

    loader = store.session("load", coordinator=nodes[0])
    preload = WorkloadDriver(sim)
    preload.add_session(
        loader, [OpSpec("update", f"k{i}", i) for i in range(KEYS)],
        timeout=400.0,
    )
    preload.run()

    policy = RetryPolicy(
        max_attempts=2, request_timeout=120.0, backoff_base=5.0,
        jitter=0.25, hedge_after=HEDGE_AFTER if hedged else None,
    )
    driver = WorkloadDriver(sim)
    for index, node in enumerate(nodes):
        ops = [
            spec
            for round_ in range(READ_ROUNDS)
            for spec in (OpSpec("read", f"k{(round_ + index) % KEYS}"),
                         OpSpec("sleep", "", 5.0))
        ]
        driver.add_session(
            store.session(f"c{index}", coordinator=node, retry=policy),
            ops, timeout=400.0,
        )
    result = driver.run()
    return result, sim


# ---------------------------------------------------------------------------
# (b) failover through a coordinator crash
# ---------------------------------------------------------------------------

def run_failover(protected, seed=3):
    """One session pinned to a coordinator that crashes mid-run.
    Returns (lane stats, sim)."""
    sim = Simulator(seed=seed)
    store = build_quorum(sim, FixedLatency(2.0))
    nodes = store.server_ids()
    policy = RetryPolicy(
        max_attempts=4, request_timeout=30.0, backoff_base=5.0, jitter=0.25,
    ) if protected else None
    session = store.session("pinned", coordinator=nodes[0], retry=policy)

    driver = WorkloadDriver(sim)
    ops = [
        spec
        for i in range(FAILOVER_OPS)
        for spec in (OpSpec("update", f"f{i % KEYS}", i),
                     OpSpec("sleep", "", 20.0))
    ]
    stats = driver.add_session(session, ops, timeout=400.0)
    sim.schedule(CRASH_AT, store.replica(nodes[0]).crash)
    driver.run()
    return stats, sim


# ---------------------------------------------------------------------------
# determinism probe (its seed-7 hash is pinned in the golden)
# ---------------------------------------------------------------------------

def e14_trace_hash(seed=7):
    """SHA-256 of the full trace JSONL of a fixed-seed hedged run.

    Retry backoff jitter and hedge scheduling draw from the simulator's
    seeded RNG, so two runs with the same seed must replay the exact
    same event timeline — byte-identical traces.
    """
    tracer = Tracer()
    run_tail(hedged=True, seed=seed, tracer=tracer)
    return hashlib.sha256(tracer.dumps_jsonl().encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# the experiment
# ---------------------------------------------------------------------------

def test_e14_tail_tolerance(benchmark, capsys):
    unhedged, unhedged_sim = run_tail(hedged=False)
    hedged, hedged_sim = run_tail(hedged=True)
    protected, protected_sim = run_failover(protected=True)
    exposed, _exposed_sim = run_failover(protected=False)

    def rpc(sim, name):
        return sim.metrics.counter(f"rpc.{name}").value

    emit(capsys, render_table(
        ["client", "reads", "p50 (ms)", "p99 (ms)", "hedges", "hedge wins"],
        [
            ["unhedged", unhedged.read_latency.count,
             f"{unhedged.read_latency.percentile(50):.1f}",
             f"{unhedged.read_latency.p99:.1f}",
             rpc(unhedged_sim, "hedges"), rpc(unhedged_sim, "hedge_wins")],
            ["hedged", hedged.read_latency.count,
             f"{hedged.read_latency.percentile(50):.1f}",
             f"{hedged.read_latency.p99:.1f}",
             rpc(hedged_sim, "hedges"), rpc(hedged_sim, "hedge_wins")],
        ],
        title="E14a: quorum read tail with one straggler coordinator "
              f"(service_time={STRAGGLER_SERVICE:.0f}ms, "
              f"hedge_after={HEDGE_AFTER:.0f}ms)",
    ))
    emit(capsys, render_table(
        ["client", "writes ok", "writes failed", "failovers"],
        [
            ["retry + failover", protected.ok, protected.failed,
             rpc(protected_sim, "failovers")],
            ["no policy", exposed.ok, exposed.failed, 0],
        ],
        title="E14b: pinned-coordinator crash at "
              f"t={CRASH_AT:.0f}ms ({FAILOVER_OPS} writes)",
    ))

    # (a) hedging cuts the straggler out of the tail.
    assert rpc(hedged_sim, "hedges") > 0
    assert rpc(hedged_sim, "hedge_wins") > 0
    assert rpc(unhedged_sim, "hedges") == 0
    assert hedged.read_latency.p99 < unhedged.read_latency.p99
    # The straggler dominates the unhedged tail; hedged reads finish
    # before its service queue would even dispatch them.
    assert unhedged.read_latency.p99 >= STRAGGLER_SERVICE
    assert hedged.read_latency.p99 < STRAGGLER_SERVICE

    # (b) failover keeps the store serving through the crash…
    assert protected.ok == FAILOVER_OPS
    assert protected.failed == 0
    assert rpc(protected_sim, "failovers") > 0
    # …while the policy-less client loses every op after it.
    assert exposed.ok < FAILOVER_OPS
    assert exposed.failed > 0

    benchmark.pedantic(run_tail, args=(True,), rounds=2, iterations=1)


def test_e14_fixed_seed_trace_is_deterministic(capsys):
    """Equal within one process here; equal across commits and hash
    seeds through the golden."""
    trace_hash = e14_trace_hash(seed=7)
    assert trace_hash == e14_trace_hash(seed=7)
    emit(capsys, f"E14: hedged tail trace SHA-256, seed 7: {trace_hash}")
