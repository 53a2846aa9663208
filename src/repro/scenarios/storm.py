"""The hot-key storm: congestion collapse and its prevention.

A chaos scenario on the *traffic* axis rather than the network axis:
a flash crowd (open-loop, so it does not self-throttle) slams a
zipfian-hot keyspace against a quorum store whose hot key's ring
coordinator has finite capacity.  Without overload control the
coordinator's unbounded service queue grows past the client timeout —
every queued request is served only after its client gave up, so
service capacity is spent producing replies nobody reads.  Goodput
collapses while the servers run flat out: congestion collapse, the
metastable failure mode admission control exists to prevent.

The scenario runs the same seeded storm up to three times:

* ``knee``      — offered load at aggregate capacity, admission on:
  the best sustainable goodput (the top of the throughput–latency
  knee; E16 sweeps the full curve).
* ``collapse``  — flash crowd at several times capacity, admission
  *off*: goodput collapses far below the knee.
* ``protected`` — same flash crowd, bounded queue + token bucket on:
  excess arrivals are shed at admission with a retry-after hint,
  admitted requests finish inside their timeout, and goodput holds
  within 20% of the knee.

Every run is traced through a :class:`~repro.sim.HashingTracer`, so
the whole storm has a per-seed fingerprint; the CI stories-smoke job
runs it twice and fails on drift, and :func:`run_storm` checks
convergence after the storm quiesces (an overloaded store must shed or
slow, never diverge).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..api import registry
from ..checkers import check_convergence
from ..sim import FixedLatency, HashingTracer, Network, Simulator
from ..workload import FlashCrowdArrivals, PoissonArrivals, YCSBWorkload
from ..workload.openloop import OpenLoopDriver

__all__ = ["StormRun", "StormReport", "run_storm", "format_storm"]

#: Per-node capacity knobs the storm uses; small on purpose so the
#: scenario saturates in a few simulated seconds.
SERVICE_TIME = 1.0          # ms per request -> 1000 ops/sec/node
QUEUE_LIMIT = 32            # admitted-but-unserved requests per node
ADMISSION_RATE = 900.0      # sustained ops/sec/node through the bucket
ADMISSION_BURST = 50.0
#: The flash crowd (:class:`~repro.workload.FlashCrowdArrivals`
#: arguments): several times a 3-node store's capacity at the spike.
FLASH_CROWD = dict(base=500.0, spike=8000.0, spike_at=500.0, hold=2000.0,
                   decay=1000.0)
UNTIL = 4000.0              # offered-traffic window per leg (ms)
TIMEOUT = 100.0             # per-op client timeout (ms)


@dataclass
class StormRun:
    """One leg of the storm (knee, collapse, or protected)."""

    name: str
    admission: bool
    offered: int
    ok: int
    failed: int
    shed: int
    goodput: float
    p99_read: float
    p99_write: float
    queue_peak: float
    server_shed: int
    fingerprint: str
    converged: bool


@dataclass
class StormReport:
    """The storm's verdicts, per seed."""

    seed: int
    protocol: str
    runs: dict[str, StormRun] = field(default_factory=dict)

    @property
    def knee_goodput(self) -> float:
        return self.runs["knee"].goodput

    @property
    def collapse_demonstrated(self) -> bool:
        """Without admission control the flash crowd must have crushed
        goodput to under half the knee."""
        return self.runs["collapse"].goodput < 0.5 * self.knee_goodput

    @property
    def collapse_prevented(self) -> bool:
        """With admission control on, goodput must hold within 20% of
        the knee through the same flash crowd."""
        return self.runs["protected"].goodput >= 0.8 * self.knee_goodput

    @property
    def converged(self) -> bool:
        return all(run.converged for run in self.runs.values())

    @property
    def ok(self) -> bool:
        return (self.collapse_demonstrated and self.collapse_prevented
                and self.converged)

    @property
    def fingerprint(self) -> str:
        """One combined per-seed fingerprint over all three legs."""
        return "-".join(
            self.runs[name].fingerprint[:16] for name in sorted(self.runs)
        )


def _storm_leg(
    name: str,
    seed: int,
    arrivals,
    admission: bool,
    protocol: str,
    nodes: int,
) -> StormRun:
    tracer = HashingTracer()
    sim = Simulator(seed, tracer=tracer)
    network = Network(sim, latency=FixedLatency(2.0))
    knobs = {}
    if admission:
        knobs = dict(queue_limit=QUEUE_LIMIT, admission_rate=ADMISSION_RATE,
                     admission_burst=ADMISSION_BURST)
    store = registry.build(protocol, sim, network, nodes=nodes,
                           service_time=SERVICE_TIME, **knobs)
    # Small zipfian keyspace: the hottest key's ring coordinator is the
    # node the storm lands on.
    ops = YCSBWorkload("B", records=100, seed=seed)
    driver = OpenLoopDriver(store, arrivals, ops, sessions=1000,
                            timeout=TIMEOUT, seed=seed)
    result = driver.run(UNTIL)
    # The storm must never break safety: once traffic stops and the
    # store quiesces, replicas converge exactly as after a partition.
    sim.run()
    store.settle()
    sim.run()
    converged = check_convergence(store.snapshots()).ok
    metrics = sim.metrics
    return StormRun(
        name=name,
        admission=admission,
        offered=result.offered,
        ok=result.ok,
        failed=result.failed,
        shed=result.shed,
        goodput=result.goodput,
        p99_read=result.read_latency.percentile(99),
        p99_write=result.write_latency.percentile(99),
        queue_peak=metrics.gauge("server.queue_depth_peak").value,
        server_shed=metrics.counter("server.shed").value,
        fingerprint=tracer.hexdigest(),
        converged=converged,
    )


def run_storm(
    seed: int = 42, protocol: str = "quorum", nodes: int = 3,
) -> StormReport:
    """Run the three-leg hot-key storm; deterministic per ``seed``."""
    if nodes < 1:   # before the knee rate is sized from it
        raise ValueError("need at least one replica")
    report = StormReport(seed=seed, protocol=protocol)
    capacity = nodes * 1000.0 / SERVICE_TIME
    legs = (
        ("knee", PoissonArrivals(rate=capacity, seed=seed), True),
        ("collapse", FlashCrowdArrivals(**FLASH_CROWD, seed=seed), False),
        ("protected", FlashCrowdArrivals(**FLASH_CROWD, seed=seed), True),
    )
    for name, arrivals, admission in legs:
        report.runs[name] = _storm_leg(
            name, seed, arrivals, admission, protocol, nodes
        )
    return report


def format_storm(report: StormReport) -> str:
    """The verdict table ``repro load --storm`` prints."""
    lines = [
        f"hot-key storm: protocol={report.protocol} seed={report.seed} "
        f"(service_time={SERVICE_TIME}ms/node)",
        f"{'leg':<11}{'admission':<11}{'offered':>8}{'ok':>8}{'shed':>8}"
        f"{'goodput':>9}{'p99 rd':>8}{'q.peak':>8}",
    ]
    lines.append("-" * len(lines[-1]))
    for name in ("knee", "collapse", "protected"):
        run = report.runs[name]
        lines.append(
            f"{run.name:<11}{'on' if run.admission else 'off':<11}"
            f"{run.offered:>8}{run.ok:>8}{run.shed:>8}"
            f"{run.goodput:>9.0f}{run.p99_read:>8.1f}{run.queue_peak:>8.0f}"
        )
    lines.append("-" * 71)
    knee = report.knee_goodput
    collapse = report.runs["collapse"].goodput
    protected = report.runs["protected"].goodput
    lines.append(
        f"collapse demonstrated: {report.collapse_demonstrated} "
        f"(goodput {collapse:.0f} vs knee {knee:.0f}, "
        f"needs < {0.5 * knee:.0f})"
    )
    lines.append(
        f"collapse prevented:    {report.collapse_prevented} "
        f"(goodput {protected:.0f}, needs >= {0.8 * knee:.0f})"
    )
    lines.append(f"converged after storm: {report.converged}")
    lines.append(f"fingerprint: {report.fingerprint}")
    lines.append("PASS" if report.ok else "FAIL")
    return "\n".join(lines)
