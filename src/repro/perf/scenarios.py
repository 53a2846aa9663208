"""The scenario catalogue behind ``repro bench`` and ``repro sweep``.

Each scenario builds a fresh :class:`~repro.sim.Simulator` from the
given seed, drives a representative workload through the public store
machinery, and returns the simulator plus the count of
application-level operations it completed.  Scenarios must be
*deterministic functions of the seed*: the engine runs each one at
least twice (untraced for timing, then under a hashing tracer for the
behavior fingerprint) and insists every pass reproduces the first.

The closed-loop YCSB scenarios are rows over one runner
(:func:`_ycsb`: store builder, keyspace, size per scale, timeout, fault
plan); the CRDT storm and the open-loop flood are functions.  Together
they cover the hot paths that dominate every experiment in
``benchmarks/``:

``quorum_ycsb``
    YCSB-A through the :class:`~repro.workload.WorkloadDriver` against
    a 5-node Dynamo-style quorum store — the event loop + network +
    RPC path.
``sharded_ring``
    The same driver against a 4-shard :class:`~repro.sharding.\
ShardedStore` (hash-ring routing, per-node service time) — adds
    queueing and routing pressure.
``multipaxos``
    Consensus-replicated log reads/writes — the chattiest protocol per
    client op.
``crdt_merge_storm``
    Gossip rounds over OR-Set + G-Counter replicas where every ship is
    ``state.copy()`` + ``merge`` — the CRDT clone/merge path.
``quorum_chaos``
    YCSB-A on the quorum store while a :class:`~repro.chaos.Nemesis`
    executes the ``mixed`` fault plan — partitions, crashes, drops and
    clock skew on top of the event loop, plus the timeout/recovery
    paths the healthy scenarios never touch.
``openloop_overload``
    A Poisson flood past capacity through the open-loop engine against
    an admission-controlled quorum store — the arrival scheduler,
    bounded service queue, token bucket, and shed/retry-after paths
    under sustained saturation.

``quorum_ycsb_100x`` and ``quorum_ycsb_cached`` are opt-in variants of
the first (see the notes on their rows).
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

from ..api import registry
from ..chaos import PLANS, Nemesis
from ..crdt import GCounter, ORSet
from ..sharding import ShardedStore
from ..sim import ExponentialLatency, Network, Simulator
from ..workload import YCSBWorkload, run_workload


@dataclass(frozen=True)
class ScenarioOutcome:
    """What one scenario run hands back to the harness."""

    sim: Simulator
    ops: int


@dataclass(frozen=True)
class Scenario:
    """A named, seeded macro benchmark."""

    name: str
    description: str
    run: Callable[[int, bool, Any], ScenarioOutcome]  # (seed, quick, tracer)


# ---------------------------------------------------------------------------
# Store-driven scenarios (workload driver end to end)
# ---------------------------------------------------------------------------


def _ycsb(
    build: Callable[[Simulator, Network], Any],
    records: int,
    quick: tuple[int, int],
    full: tuple[int, int],
    timeout: float = 60_000.0,
    plan: str | None = None,
) -> Callable[[int, bool, Any], ScenarioOutcome]:
    """A closed-loop YCSB-A scenario over the store ``build(sim, net)``
    makes: ``quick`` / ``full`` are ``(ops, clients)`` at each scale;
    ``plan`` names a fault plan a :class:`~repro.chaos.Nemesis` executes
    alongside the workload (healed and settled before returning)."""

    def run(seed: int, quick_scale: bool, tracer: Any = None) -> ScenarioOutcome:
        ops, clients = quick if quick_scale else full
        sim = Simulator(seed=seed, tracer=tracer)
        net = Network(sim, latency=ExponentialLatency(base=0.3, mean=1.0))
        store = build(sim, net)
        workload = YCSBWorkload("A", records=records, seed=seed + 1)
        nemesis = Nemesis(PLANS[plan], seed=seed) if plan else None
        result = run_workload(store, workload.take(ops), clients=clients,
                              timeout=timeout, nemesis=nemesis)
        if nemesis is not None:
            nemesis.heal_all()
            sim.run()
            store.settle()
            sim.run()
        return ScenarioOutcome(sim, result.ops_ok)

    return run


#: ``build(sim, net)`` of the 5-node R=W=2 quorum store three rows share.
_QUORUM = partial(registry.build, "quorum", nodes=5, r=2, w=2)


def _run_openloop_overload(seed: int, quick: bool, tracer: Any = None) -> ScenarioOutcome:
    from ..workload import OpenLoopDriver, PoissonArrivals

    window, rate = (1500.0, 3000.0) if quick else (6000.0, 4000.0)
    sim = Simulator(seed=seed, tracer=tracer)
    net = Network(sim, latency=ExponentialLatency(base=0.3, mean=1.0))
    store = registry.build("quorum", sim, net, nodes=3, service_time=1.0,
                           queue_limit=32, admission_rate=900.0,
                           admission_burst=50.0)
    workload = YCSBWorkload("B", records=100, seed=seed + 1)
    driver = OpenLoopDriver(
        store, PoissonArrivals(rate=rate, seed=seed + 2), workload,
        sessions=500, timeout=100.0, seed=seed + 3,
    )
    result = driver.run(window)
    return ScenarioOutcome(sim, result.ok + result.failed)


# ---------------------------------------------------------------------------
# CRDT merge storm (no network — pure clone+merge churn on the sim clock)
# ---------------------------------------------------------------------------


def _run_crdt_merge_storm(seed: int, quick: bool, tracer: Any = None) -> ScenarioOutcome:
    replicas = 8
    rounds = 25 if quick else 150
    mutations_per_round = 3
    # Distinct elements; a re-add replaces the element's live dots, so
    # only concurrent adds leave more than one.
    universe = 64

    sim = Simulator(seed=seed, tracer=tracer)
    rng = sim.rng
    sets = [ORSet(f"r{i}") for i in range(replicas)]
    counters = [GCounter(f"r{i}") for i in range(replicas)]
    merges = sim.metrics.counter("crdt.merges")
    mutations = sim.metrics.counter("crdt.mutations")

    def mutate(i: int) -> None:
        crdt = sets[i]
        for _ in range(mutations_per_round):
            element = f"e{rng.randrange(universe)}"
            if rng.random() < 0.7:
                crdt.add(element)
            else:
                crdt.remove(element)
            mutations.inc()
        counters[i].increment(1 + rng.randrange(3))
        mutations.inc()

    def gossip(i: int) -> None:
        # Ship a snapshot to one peer, as a state-based gossip round
        # would: the copy is what crosses the "wire".
        peer = rng.randrange(replicas - 1)
        if peer >= i:
            peer += 1
        sets[peer].merge(sets[i].copy())
        counters[peer].merge(counters[i].copy())
        merges.inc(2)

    def round_(index: int) -> None:
        for i in range(replicas):
            sim.call_soon(mutate, i)
            sim.call_soon(gossip, i)
        if index + 1 < rounds:
            sim.schedule(1.0, round_, index + 1)

    sim.call_soon(round_, 0)
    sim.run()
    # The outcome, so the pinned metrics digest moves when a join does.
    gauge = sim.metrics.gauge
    gauge("crdt.live_elements").set(sum(len(s) for s in sets))
    gauge("crdt.live_dots").set(sum(len(s.live_tags(e)) for s in sets for e in s))
    gauge("crdt.counter_total").set(sum(c.value for c in counters))
    states = json.dumps([c.state() for c in sets + counters], sort_keys=True)
    gauge("crdt.state_crc32").set(zlib.crc32(states.encode()))
    return ScenarioOutcome(sim, merges.value)


SCENARIOS: dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            "quorum_ycsb",
            "YCSB-A via WorkloadDriver on a 5-node quorum store (R=W=2)",
            _ycsb(_QUORUM, 500, quick=(400, 8), full=(4000, 24)),
        ),
        Scenario(
            "sharded_ring",
            "YCSB-A on a 4-shard hash-ring of quorum groups, 2ms service time",
            _ycsb(partial(ShardedStore, protocol="quorum", shards=4,
                          nodes_per_shard=3, service_time=2.0),
                  1000, quick=(400, 16), full=(3000, 32)),
        ),
        Scenario(
            "multipaxos",
            "YCSB-A on a 5-node multipaxos replicated log",
            _ycsb(partial(registry.build, "multipaxos", nodes=5),
                  200, quick=(200, 4), full=(1500, 8), timeout=120_000.0),
        ),
        Scenario(
            "crdt_merge_storm",
            "gossip rounds of ORSet+GCounter snapshot copy+merge",
            _run_crdt_merge_storm,
        ),
        # The tight per-op timeout is the point: faults make ops fail,
        # and the timeout/cleanup machinery is the path being measured.
        Scenario(
            "quorum_chaos",
            "YCSB-A on the quorum store under the mixed nemesis fault plan",
            _ycsb(_QUORUM, 500, quick=(300, 6), full=(2000, 16),
                  timeout=400.0, plan="mixed"),
        ),
        Scenario(
            "openloop_overload",
            "open-loop Poisson flood past capacity, admission control on",
            _run_openloop_overload,
        ),
        # One size at both scales on purpose: fixed heavyweight fodder
        # for the multiprocess sweep (``repro sweep``), where the
        # interesting number is aggregate events/sec across workers.
        Scenario(
            "quorum_ycsb_100x",
            "quorum_ycsb at 100x the quick op count — sweep-runner fodder",
            _ycsb(_QUORUM, 500, quick=(40_000, 24), full=(40_000, 24),
                  timeout=600_000.0),
        ),
        # The hit path (no network round trip), the fill path and the
        # CDC append all on the measured loop.
        Scenario(
            "quorum_ycsb_cached",
            "quorum_ycsb behind a write-through cache (hit/fill/CDC paths)",
            _ycsb(partial(registry.build, "cached", protocol="quorum",
                          policy="write_through", ttl=200.0, capacity=256,
                          miss_mode="quorum", nodes=5, r=2, w=2),
                  500, quick=(400, 8), full=(4000, 24)),
        ),
    )
}

#: The scenarios ``repro bench`` runs by default and BENCH_CORE.json
#: pins.  ``quorum_ycsb_100x`` (too big for the serial gate) and
#: ``quorum_ycsb_cached`` (so the cache tier cannot shift the pinned
#: baseline) stay out: reached by name or via ``repro sweep``.
DEFAULT_SCENARIOS: tuple[str, ...] = (
    "quorum_ycsb",
    "sharded_ring",
    "multipaxos",
    "crdt_merge_storm",
    "quorum_chaos",
    "openloop_overload",
)
