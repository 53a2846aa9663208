"""The macro-benchmark scenarios behind ``repro bench``.

Each scenario builds a fresh :class:`~repro.sim.Simulator` from the
given seed, drives a representative workload through the public store
machinery, and returns the simulator plus the count of
application-level operations it completed.  Scenarios must be
*deterministic functions of the seed*: the harness runs each one twice
(untraced for timing, then under a hashing tracer for the behavior
fingerprint) and insists the two metrics snapshots agree.

The four scenarios cover the hot paths that dominate every experiment
in ``benchmarks/``:

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
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _run_quorum_ycsb(seed: int, quick: bool, tracer: Any = None) -> ScenarioOutcome:
    ops, clients = (400, 8) if quick else (4000, 24)
    sim = Simulator(seed=seed, tracer=tracer)
    net = Network(sim, latency=ExponentialLatency(base=0.3, mean=1.0))
    store = registry.build("quorum", sim, net, nodes=5, r=2, w=2)
    workload = YCSBWorkload("A", records=500, seed=seed + 1)
    result = run_workload(store, workload.take(ops), clients=clients,
                          timeout=60_000.0)
    return ScenarioOutcome(sim, result.ops_ok)


def _run_quorum_ycsb_100x(seed: int, quick: bool, tracer: Any = None) -> ScenarioOutcome:
    """100x the quick ``quorum_ycsb`` op count, same store shape.

    ``quick`` is ignored on purpose: this is fixed heavyweight fodder
    for the multiprocess sweep runner (``repro sweep``), where the
    interesting number is aggregate events/sec across workers, not a
    tunable per-run size.  Not part of ``DEFAULT_SCENARIOS`` — too big
    for the serial bench gate.
    """
    ops, clients = 40_000, 24
    sim = Simulator(seed=seed, tracer=tracer)
    net = Network(sim, latency=ExponentialLatency(base=0.3, mean=1.0))
    store = registry.build("quorum", sim, net, nodes=5, r=2, w=2)
    workload = YCSBWorkload("A", records=500, seed=seed + 1)
    result = run_workload(store, workload.take(ops), clients=clients,
                          timeout=600_000.0)
    return ScenarioOutcome(sim, result.ops_ok)


def _run_quorum_ycsb_cached(seed: int, quick: bool, tracer: Any = None) -> ScenarioOutcome:
    """``quorum_ycsb`` behind a write-through cache — the hit path
    (no network round trip), the fill path, and the CDC append all on
    the measured loop.  Not part of ``DEFAULT_SCENARIOS``: reached by
    name, so adding the cache tier cannot shift the pinned baseline.
    """
    ops, clients = (400, 8) if quick else (4000, 24)
    sim = Simulator(seed=seed, tracer=tracer)
    net = Network(sim, latency=ExponentialLatency(base=0.3, mean=1.0))
    store = registry.build("cached", sim, net, protocol="quorum",
                           policy="write_through", ttl=200.0, capacity=256,
                           miss_mode="quorum", nodes=5, r=2, w=2)
    workload = YCSBWorkload("A", records=500, seed=seed + 1)
    result = run_workload(store, workload.take(ops), clients=clients,
                          timeout=60_000.0)
    return ScenarioOutcome(sim, result.ops_ok)


def _run_sharded_ring(seed: int, quick: bool, tracer: Any = None) -> ScenarioOutcome:
    ops, clients = (400, 16) if quick else (3000, 32)
    sim = Simulator(seed=seed, tracer=tracer)
    net = Network(sim, latency=ExponentialLatency(base=0.3, mean=1.0))
    store = ShardedStore(sim, net, protocol="quorum", shards=4,
                         nodes_per_shard=3, service_time=2.0)
    workload = YCSBWorkload("A", records=1000, seed=seed + 1)
    result = run_workload(store, workload.take(ops), clients=clients,
                          timeout=60_000.0)
    return ScenarioOutcome(sim, result.ops_ok)


def _run_multipaxos(seed: int, quick: bool, tracer: Any = None) -> ScenarioOutcome:
    ops, clients = (200, 4) if quick else (1500, 8)
    sim = Simulator(seed=seed, tracer=tracer)
    net = Network(sim, latency=ExponentialLatency(base=0.3, mean=1.0))
    store = registry.build("multipaxos", sim, net, nodes=5)
    workload = YCSBWorkload("A", records=200, seed=seed + 1)
    result = run_workload(store, workload.take(ops), clients=clients,
                          timeout=120_000.0)
    return ScenarioOutcome(sim, result.ops_ok)


def _run_quorum_chaos(seed: int, quick: bool, tracer: Any = None) -> ScenarioOutcome:
    ops, clients = (300, 6) if quick else (2000, 16)
    sim = Simulator(seed=seed, tracer=tracer)
    net = Network(sim, latency=ExponentialLatency(base=0.3, mean=1.0))
    store = registry.build("quorum", sim, net, nodes=5, r=2, w=2)
    workload = YCSBWorkload("A", records=500, seed=seed + 1)
    nemesis = Nemesis(PLANS["mixed"], seed=seed)
    # The tight per-op timeout is the point: faults make ops fail, and
    # the timeout/cleanup machinery is the path being measured.
    result = run_workload(store, workload.take(ops), clients=clients,
                          timeout=400.0, nemesis=nemesis)
    nemesis.heal_all()
    sim.run()
    store.settle()
    sim.run()
    return ScenarioOutcome(sim, result.ops_ok)


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
    universe = 64  # distinct elements; tags still accrue per add

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
    return ScenarioOutcome(sim, merges.value)


SCENARIOS: dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            "quorum_ycsb",
            "YCSB-A via WorkloadDriver on a 5-node quorum store (R=W=2)",
            _run_quorum_ycsb,
        ),
        Scenario(
            "sharded_ring",
            "YCSB-A on a 4-shard hash-ring of quorum groups, 2ms service time",
            _run_sharded_ring,
        ),
        Scenario(
            "multipaxos",
            "YCSB-A on a 5-node multipaxos replicated log",
            _run_multipaxos,
        ),
        Scenario(
            "crdt_merge_storm",
            "gossip rounds of ORSet+GCounter snapshot copy+merge",
            _run_crdt_merge_storm,
        ),
        Scenario(
            "quorum_chaos",
            "YCSB-A on the quorum store under the mixed nemesis fault plan",
            _run_quorum_chaos,
        ),
        Scenario(
            "openloop_overload",
            "open-loop Poisson flood past capacity, admission control on",
            _run_openloop_overload,
        ),
        Scenario(
            "quorum_ycsb_100x",
            "quorum_ycsb at 100x the quick op count — sweep-runner fodder",
            _run_quorum_ycsb_100x,
        ),
        Scenario(
            "quorum_ycsb_cached",
            "quorum_ycsb behind a write-through cache (hit/fill/CDC paths)",
            _run_quorum_ycsb_cached,
        ),
    )
}

#: The scenarios ``repro bench`` runs by default and BENCH_CORE.json
#: pins.  Heavyweight opt-in scenarios (``quorum_ycsb_100x``) stay out
#: of the serial gate and are reached by name or via ``repro sweep``.
DEFAULT_SCENARIOS: tuple[str, ...] = (
    "quorum_ycsb",
    "sharded_ring",
    "multipaxos",
    "crdt_merge_storm",
    "quorum_chaos",
    "openloop_overload",
)
