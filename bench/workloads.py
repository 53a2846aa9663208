"""The six benchmark workloads, written against the public ``repro`` API.

A workload is three functions the runner times separately:

``build(seed, ops, tracer)``  Simulator + Network + store + op list
``run(world)``                driver run, then heal/settle where it has one
``check(world, outcome)``     the workload's checker set over the history

Every workload is a deterministic function of ``seed`` and is built so
that **no operation fails**: faults and overload are absorbed by
retries inside each op's deadline, which keeps the shed / retry /
timeout / failover paths on the measured loop while ``failed`` stays 0.
All loops run in *simulated* time, so the load generator cannot run
late and host speed never changes what the program is asked to do.

Derived seeds: simulator ``seed``, op stream ``seed+1``, arrivals
``seed+2``, open-loop session picker ``seed+3``, nemesis ``seed+4``,
cache ``seed+5``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.api import registry
from repro.cache import CachedStore
from repro.chaos import FaultPlan, Nemesis
from repro.checkers import (
    check_causal,
    check_convergence,
    check_linearizability,
    check_monotonic_reads,
    check_monotonic_writes,
    check_read_your_writes,
    check_writes_follow_reads,
    measure_staleness,
    stale_read_fraction,
)
from repro.crdt import GCounter, ORSet
from repro.rpc import RetryPolicy
from repro.sharding import ShardedStore
from repro.sim import ExponentialLatency, Network, Simulator
from repro.workload import (
    OpenLoopDriver,
    PoissonArrivals,
    YCSBWorkload,
    run_workload,
)

import spans

SESSION_CHECKS = {
    "ryw": check_read_your_writes,
    "mr": check_monotonic_reads,
    "mw": check_monotonic_writes,
    "wfr": check_writes_follow_reads,
}


@dataclass
class World:
    """What ``build`` hands to ``run``: the simulator plus whatever
    the workload's own ``run``/``check`` need."""

    sim: Simulator
    ops: int                      # configured size: ops the run must attempt
    store: Any = None
    oplist: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What ``run`` hands to ``check`` and to the metric code."""

    attempted: int
    failed: int                   # failed + shed, as the client saw them
    history: Any = None
    snapshots: list | None = None
    read_latency: Any = None
    write_latency: Any = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: int                      # full-scale size
    smoke_ops: int
    build: Callable[[int, int, Any], World]
    run: Callable[[World], Outcome]
    #: ``(check name, metric group, expected verdict, fn(world, outcome) -> bool)``
    checks: tuple[tuple[str, str, bool | None, Callable[[World, Outcome], bool]], ...]


def _net(sim: Simulator) -> Network:
    return Network(sim, latency=ExponentialLatency(base=0.3, mean=1.0))


def _oplist(preset: str, records: int, seed: int, ops: int) -> list:
    return YCSBWorkload(preset, records=records, seed=seed + 1).take(ops)


def _drive(store: Any, oplist: list, **opts: Any) -> Any:
    return spans.call("workload", "run_workload", run_workload, store, oplist,
                      **opts)


def _closed_outcome(result: Any, snapshots: list | None = None) -> Outcome:
    return Outcome(
        attempted=result.ops_total,
        failed=result.ops_failed,
        history=result.history,
        snapshots=snapshots,
        read_latency=result.read_latency,
        write_latency=result.write_latency,
    )


def _sessions(expected: bool | None):
    """The four session-guarantee checks, each with ``expected``."""
    return tuple(
        (name, "session", expected,
         lambda world, outcome, checker=checker: checker(outcome.history).ok)
        for name, checker in SESSION_CHECKS.items())


def _staleness(world: World, outcome: Outcome) -> bool:
    # Not a verdict: the measurement every staleness experiment pays.
    measure_staleness(outcome.history)
    return True


STALENESS = ("staleness", "staleness", None, _staleness)


# ---------------------------------------------------------------------------
# quorum_closed — the healthy baseline
# ---------------------------------------------------------------------------
def _build_quorum(seed: int, ops: int, tracer: Any) -> World:
    sim = Simulator(seed=seed, tracer=tracer)
    store = registry.build("quorum", sim, _net(sim), nodes=5, r=2, w=2)
    return World(sim, ops, store, _oplist("A", 500, seed, ops))


def _run_quorum(world: World) -> Outcome:
    return _closed_outcome(_drive(
        world.store, world.oplist, clients=24, timeout=60_000.0,
    ))


# ---------------------------------------------------------------------------
# paxos_lin — the strong end, the chattiest protocol
# ---------------------------------------------------------------------------
def _build_paxos(seed: int, ops: int, tracer: Any) -> World:
    sim = Simulator(seed=seed, tracer=tracer)
    store = registry.build("multipaxos", sim, _net(sim), nodes=5)
    return World(sim, ops, store, _oplist("A", 200, seed, ops))


def _run_paxos(world: World) -> Outcome:
    return _closed_outcome(_drive(
        world.store, world.oplist, clients=8, timeout=120_000.0,
        read_mode="log",
    ))


# ---------------------------------------------------------------------------
# openloop_overload — Poisson burst past capacity, shed ops retried
# ---------------------------------------------------------------------------
#: Shed requests come back with a retry-after hint; the policy keeps
#: re-issuing inside the op deadline until the burst has drained, so
#: the shed / throttle / retry-timer paths all run and no op fails.
OVERLOAD_RETRY = RetryPolicy(
    max_attempts=1_000, request_timeout=500.0, backoff_base=2.0,
    backoff_max=40.0, jitter=0.5,
)
OVERLOAD_DEADLINE_MS = 600_000.0


def _build_overload(seed: int, ops: int, tracer: Any) -> World:
    sim = Simulator(seed=seed, tracer=tracer)
    store = registry.build(
        "quorum", sim, _net(sim), nodes=3, service_time=1.0,
        queue_limit=32, admission_rate=900.0, admission_burst=4.0,
    )
    workload = YCSBWorkload("B", records=100, seed=seed + 1)
    driver = OpenLoopDriver(
        store, PoissonArrivals(rate=2200.0, seed=seed + 2), workload,
        sessions=500, timeout=OVERLOAD_DEADLINE_MS, retry=OVERLOAD_RETRY,
        max_ops=ops, seed=seed + 3,
    )
    return World(sim, ops, store, extra={"driver": driver})


def _run_overload(world: World) -> Outcome:
    result = spans.call("workload", "OpenLoopDriver.run",
                        world.extra["driver"].run)
    return Outcome(
        attempted=result.offered,
        failed=result.failed + result.in_flight,
        history=result.history,
        read_latency=result.read_latency,
        write_latency=result.write_latency,
    )


# ---------------------------------------------------------------------------
# stack_chaos — cache over sharded sibling quorums under a nemesis
# ---------------------------------------------------------------------------
CHAOS_PERIOD_MS = 500.0
CHAOS_PERIODS = 64            # 32 simulated seconds: longer than any run
CHAOS_SHAPES = ("halves", "ring", "bridge")


def _chaos_steps() -> list[dict]:
    """The built-in ``mixed`` plan's rhythm, repeated every 500 sim-ms
    with the partition shape rotating.  Every fault is undone inside
    its own period, so an op that retries across a period completes."""
    steps: list[dict] = []
    for k in range(CHAOS_PERIODS):
        base = k * CHAOS_PERIOD_MS
        steps += [
            {"fault": "partition", "at": base + 40.0,
             "shape": CHAOS_SHAPES[k % len(CHAOS_SHAPES)]},
            {"fault": "crash", "at": base + 80.0, "target": "random"},
            {"fault": "heal", "at": base + 160.0},
            {"fault": "recover", "at": base + 200.0, "target": "all"},
            {"fault": "drop", "at": base + 240.0, "rate": 0.4,
             "duration": 80.0},
            {"fault": "clock_skew", "at": base + 300.0, "max_ms": 40.0},
            {"fault": "heal", "at": base + 400.0},
        ]
    return steps


CHAOS_RETRY = RetryPolicy(
    max_attempts=12, request_timeout=60.0, backoff_base=5.0,
    backoff_max=80.0, jitter=0.5,
)
CHAOS_OP_TIMEOUT_MS = 4_000.0


def _build_stack(seed: int, ops: int, tracer: Any) -> World:
    sim = Simulator(seed=seed, tracer=tracer)
    sharded = ShardedStore(
        sim, _net(sim), protocol="quorum_siblings", shards=4,
        nodes_per_shard=3, service_time=0.5,
    )
    store = CachedStore(sharded, policy="write_through", ttl=200.0,
                        capacity=256, seed=seed + 5)
    plan = FaultPlan.from_steps("bench-periodic", _chaos_steps(), seed=seed + 4)
    nemesis = Nemesis(plan, seed=seed + 4)
    return World(sim, ops, store, _oplist("B", 1000, seed, ops),
                 {"nemesis": nemesis})


def _run_stack(world: World) -> Outcome:
    store, sim, nemesis = world.store, world.sim, world.extra["nemesis"]
    result = _drive(
        store, world.oplist, clients=8, timeout=CHAOS_OP_TIMEOUT_MS,
        retry=CHAOS_RETRY, nemesis=nemesis,
    )
    nemesis.heal_all()
    sim.run()
    # Two settle rounds, as the chaos conformance runner does: the
    # first syncs data, the second closes derived state.
    for _ in range(2):
        store.settle()
        sim.run()
    return _closed_outcome(result, store.snapshots())


def _converged(world: World, outcome: Outcome) -> bool:
    return check_convergence(outcome.snapshots).ok


# ---------------------------------------------------------------------------
# causal_checked — the checkers are the work
# ---------------------------------------------------------------------------
def _build_causal(seed: int, ops: int, tracer: Any) -> World:
    sim = Simulator(seed=seed, tracer=tracer)
    store = registry.build("causal", sim, _net(sim), nodes=5)
    return World(sim, ops, store, _oplist("A", 500, seed, ops))


def _run_causal(world: World) -> Outcome:
    # Low contention on purpose (4 clients, 500 keys): check_causal
    # closes the causal order by fixpoint passes, and with more writers
    # per key the pass count — and so the check's cost — flips between
    # 3 and 4 with the seed (cost spread 47 % at 8 clients / 200 keys,
    # 4 % here).  Above ~16 clients on 100 keys the checker also
    # reports rare violations (2 of 150 seeds), which is a finding for
    # the conformance work, not something a speed benchmark should
    # trip over.
    return _closed_outcome(_drive(
        world.store, world.oplist, clients=4, timeout=60_000.0,
    ))


# ---------------------------------------------------------------------------
# crdt_merge_storm — no network, no store: clone + merge churn
# ---------------------------------------------------------------------------
CRDT_REPLICAS = 8
CRDT_MUTATIONS_PER_ROUND = 3
CRDT_UNIVERSE = 64


def _build_crdt(seed: int, ops: int, tracer: Any) -> World:
    sim = Simulator(seed=seed, tracer=tracer)
    sets = [ORSet(f"r{i}") for i in range(CRDT_REPLICAS)]
    counters = [GCounter(f"r{i}") for i in range(CRDT_REPLICAS)]
    return World(sim, ops, extra={"sets": sets, "counters": counters})


def _run_crdt(world: World) -> Outcome:
    """One op = one replica's gossip step: mutate, then ship a snapshot
    of both CRDTs to a random peer (``copy()`` is what crosses the
    wire, ``merge`` is what the peer does with it)."""
    sim, rng = world.sim, world.sim.rng
    sets, counters = world.extra["sets"], world.extra["counters"]
    rounds = world.ops // CRDT_REPLICAS
    shipped = sim.metrics.counter("crdt.gossip_steps")

    def mutate(i: int) -> None:
        crdt = sets[i]
        for _ in range(CRDT_MUTATIONS_PER_ROUND):
            element = f"e{rng.randrange(CRDT_UNIVERSE)}"
            if rng.random() < 0.7:
                crdt.add(element)
            else:
                crdt.remove(element)
        counters[i].increment(1 + rng.randrange(3))

    def gossip(i: int) -> None:
        peer = rng.randrange(CRDT_REPLICAS - 1)
        if peer >= i:
            peer += 1
        sets[peer].merge(sets[i].copy())
        counters[peer].merge(counters[i].copy())
        shipped.inc()

    def round_(index: int) -> None:
        for i in range(CRDT_REPLICAS):
            sim.call_soon(mutate, i)
            sim.call_soon(gossip, i)
        if index + 1 < rounds:
            sim.schedule(1.0, round_, index + 1)

    sim.call_soon(round_, 0)
    sim.run()
    return Outcome(attempted=shipped.value, failed=0)


def _crdt_converged(world: World, outcome: Outcome) -> bool:
    sets, counters = world.extra["sets"], world.extra["counters"]
    for group in (sets, counters):
        # Two all-pairs sweeps: after the first every replica has seen
        # every other's state at least transitively.
        for _ in range(2):
            for a in group:
                for b in group:
                    if a is not b:
                        a.merge(b.copy())
    return (len({s.value for s in sets}) == 1
            and len({c.value for c in counters}) == 1)


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------
WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "quorum_closed",
        "healthy baseline: event loop, network fast path and quorum handlers "
        "do most of the work; checkers, cache, sharding, chaos almost none",
        ops=2400, smoke_ops=120,
        build=_build_quorum, run=_run_quorum,
        checks=_sessions(True) + (STALENESS,),
    ),
    Workload(
        "paxos_lin",
        "strong end of the spectrum and most messages per op: shows "
        "protocol-handler and per-message gains that quorum dilutes",
        ops=1600, smoke_ops=80,
        build=_build_paxos, run=_run_paxos,
        checks=(("linearizable", "linearizability", True,
                 lambda w, o: check_linearizability(o.history).ok),),
    ),
    Workload(
        "openloop_overload",
        "open-loop burst past capacity: timers armed and cancelled, shed, "
        "retry-after and retry paths that the closed loops never reach",
        ops=1200, smoke_ops=100,
        build=_build_overload, run=_run_overload,
        checks=_sessions(None) + (STALENESS,),
    ),
    Workload(
        "stack_chaos",
        "the composed stack: cache over sharded sibling quorums under a "
        "nemesis, so cache, sharding, retries and the faulted send path run",
        ops=3600, smoke_ops=200,
        build=_build_stack, run=_run_stack,
        checks=(("convergence", "convergence", True, _converged),)
        + _sessions(None),
    ),
    Workload(
        "causal_checked",
        "the checkers do most of run+check here and little elsewhere: the "
        "only place a checker optimisation shows; ops_per_s must not move",
        ops=500, smoke_ops=120,
        build=_build_causal, run=_run_causal,
        checks=(("causal", "causal", True,
                 lambda w, o: check_causal(o.history).ok),)
        + _sessions(True),
    ),
    Workload(
        "crdt_merge_storm",
        "bypasses network, rpc, replication and workload: the control on "
        "which network and protocol optimisations predict no change",
        ops=4800, smoke_ops=240,
        build=_build_crdt, run=_run_crdt,
        checks=(("crdt_converged", "convergence", True, _crdt_converged),),
    ),
)}


def stale_read_share(outcome: Outcome) -> float:
    return stale_read_fraction(outcome.history) if outcome.history else 0.0
