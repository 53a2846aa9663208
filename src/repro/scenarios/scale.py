"""The elastic-scaling demo behind ``repro scale``.

One seeded scenario exercising the whole ISSUE-7 stack end to end:
a sharded quorum store starts at ``shards`` shards, an open-loop YCSB
stream keeps writes in flight the entire time, and a scripted control
loop scales the ring out to ``peak`` shards and back down while the
traffic flows.  Every ring move streams its key ranges through the
:class:`~repro.sharding.handoff.RingMove` handoff protocol; a
:class:`~repro.membership.MembershipService` gossip overlay tracks the
changing topology live.

After the traffic window the store settles and two checkers deliver
the verdicts that make this a conformance scenario rather than a
screenshot:

* **durability** — every key ever acknowledged is read back and
  explained by :func:`~repro.checkers.check_no_lost_writes` (scaling
  must lose zero acked writes);
* **convergence** — all replica views agree
  (:func:`~repro.checkers.check_convergence` over the
  ownership-filtered sharded snapshots).

The run is traced through a :class:`~repro.sim.HashingTracer`, so the
whole scenario has a per-seed fingerprint; the CI stories-smoke job
runs it twice (``--check-determinism``) and fails on drift.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..checkers import check_convergence, check_no_lost_writes, read_back
from ..membership import MembershipService
from ..sharding import ShardedStore
from ..sim import FixedLatency, HashingTracer, Network, Simulator, spawn
from ..workload import PoissonArrivals, YCSBWorkload
from ..workload.openloop import OpenLoopDriver

__all__ = ["ScaleReport", "run_scale_demo", "format_scale"]

#: Per-node capacity; small so per-shard queueing is visible but the
#: offered load stays comfortably under aggregate capacity.
SERVICE_TIME = 1.0


@dataclass
class ScaleReport:
    """Everything ``repro scale`` prints, plus the pass/fail inputs."""

    seed: int
    protocol: str
    shards_start: int
    peak: int
    shards_end: int
    scaled_out_at: float | None = None
    scaled_in_at: float | None = None
    offered: int = 0
    ok_ops: int = 0
    failed: int = 0
    shed: int = 0
    goodput: float = 0.0
    p99_write: float = 0.0
    keys_copied: int = 0
    ranges_flipped: int = 0
    writes_rejected: int = 0
    handoff_retries: int = 0
    gossip_transitions: int = 0
    keys_checked: int = 0
    routed: dict = field(default_factory=dict)
    durability_ok: bool = False
    durability_problems: list = field(default_factory=list)
    converged: bool = False
    fingerprint: str = ""

    @property
    def scaled(self) -> bool:
        """Both legs of the resize actually committed."""
        return (self.scaled_out_at is not None
                and self.scaled_in_at is not None
                and self.shards_end == self.shards_start)

    @property
    def ok(self) -> bool:
        return self.scaled and self.durability_ok and self.converged


def run_scale_demo(
    seed: int = 42,
    protocol: str = "quorum",
    shards: int = 2,
    peak: int = 4,
    rate: float = 600.0,
    records: int = 120,
    duration: float = 3000.0,
    scale_out_at: float = 300.0,
    scale_in_at: float = 1500.0,
    timeout: float = 400.0,
) -> ScaleReport:
    """Scale ``shards`` → ``peak`` → ``shards`` under open-loop YCSB-A
    load; deterministic per ``seed``."""
    report = ScaleReport(seed=seed, protocol=protocol, shards_start=shards,
                         peak=peak, shards_end=shards)
    tracer = HashingTracer()
    sim = Simulator(seed, tracer=tracer)
    network = Network(sim, latency=FixedLatency(2.0))
    store = ShardedStore(sim, network, protocol=protocol, shards=shards,
                         nodes_per_shard=3, service_time=SERVICE_TIME)
    membership = MembershipService(sim, seed=seed)
    store.attach_membership(membership)
    membership.start()

    def control():
        yield scale_out_at
        yield store.resize(peak)
        report.scaled_out_at = sim.now
        yield max(0.0, scale_in_at - sim.now)
        yield store.resize(shards)
        report.scaled_in_at = sim.now

    spawn(sim, control(), name="scale-control")

    # YCSB-A: half the stream is writes, so acked writes span every
    # phase of both ring moves — exactly what the durability checker
    # needs to bite on.
    ops = YCSBWorkload("A", records=records, seed=seed)
    driver = OpenLoopDriver(
        store, PoissonArrivals(rate=rate, seed=seed), ops,
        sessions=200, timeout=timeout, seed=seed,
    )
    result = driver.run(duration)
    membership.stop()
    store.settle()
    sim.run()

    report.shards_end = len(store.shard_ids)
    report.offered = result.offered
    report.ok_ops = result.ok
    report.failed = result.failed
    report.shed = result.shed
    report.goodput = result.goodput
    report.p99_write = result.write_latency.percentile(99)
    metrics = sim.metrics
    report.keys_copied = metrics.counter("handoff.keys_copied").value
    report.ranges_flipped = metrics.counter("handoff.ranges_flipped").value
    report.writes_rejected = metrics.counter("handoff.writes_rejected").value
    report.handoff_retries = metrics.counter("handoff.retries").value
    report.gossip_transitions = metrics.counter("membership.transitions").value
    report.routed = store.routed_ops()

    written = {op.key for op in result.history if op.is_write}
    final = read_back(store, written, timeout=timeout)
    durability = check_no_lost_writes(result.history, final)
    report.keys_checked = durability.checked_ops
    report.durability_ok = durability.ok
    report.durability_problems = [v.description for v in durability.violations]
    report.converged = check_convergence(store.snapshots()).ok
    report.fingerprint = tracer.hexdigest()
    return report


def format_scale(report: ScaleReport) -> str:
    """The verdict block ``repro scale`` prints."""
    out_at = (f"{report.scaled_out_at:.0f}ms"
              if report.scaled_out_at is not None else "never")
    in_at = (f"{report.scaled_in_at:.0f}ms"
             if report.scaled_in_at is not None else "never")
    lines = [
        f"elastic scale demo: protocol={report.protocol} seed={report.seed} "
        f"({report.shards_start} -> {report.peak} -> {report.shards_end} "
        f"shards under open-loop YCSB-A)",
        f"  scale-out committed at {out_at}, scale-in committed at {in_at}",
        f"  offered {report.offered} ops: {report.ok_ops} ok, "
        f"{report.failed} failed ({report.shed} shed), "
        f"goodput {report.goodput:.0f} ops/s, write p99 "
        f"{report.p99_write:.1f}ms",
        f"  handoff: {report.keys_copied} keys copied over "
        f"{report.ranges_flipped} range flips, "
        f"{report.writes_rejected} writes deferred mid-cutover, "
        f"{report.handoff_retries} retries",
        f"  membership: {report.gossip_transitions} status transitions "
        f"observed by gossip",
        f"  routing: " + " ".join(
            f"{shard}={count}" for shard, count in sorted(
                report.routed.items(), key=lambda kv: str(kv[0]))
        ),
    ]
    lines.append(
        f"no acked write lost: {report.durability_ok} "
        f"({report.keys_checked} keys checked)"
    )
    for problem in report.durability_problems[:5]:
        lines.append(f"  VIOLATION: {problem}")
    lines.append(f"converged after scaling: {report.converged}")
    lines.append(f"fingerprint: {report.fingerprint[:32]}")
    lines.append("PASS" if report.ok else "FAIL")
    return "\n".join(lines)
