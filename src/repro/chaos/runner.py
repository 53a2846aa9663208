"""The conformance engine: run one store under a fault plan, grade its claims.

One cell = one protocol, bare or behind one cache policy.  It builds a
fresh seeded simulator, drives a YCSB-style closed-loop workload while
a :class:`~repro.chaos.Nemesis` executes the fault plan, heals,
quiesces, and grades what the store's
:class:`~repro.api.StoreCapabilities` declares on the history its
client recorded, whichever tier answered the reads: convergence,
linearizability (when the recorded read mode claims it), all four
session guarantees, and bounded staleness against
``staleness_bound_ms``.

Every row goes through one rule (:func:`_grade`) that never asks
whether a cache is present; ``policy`` only decides whether a
:class:`~repro.cache.CachedStore` wraps the adapter.  ``repro chaos``
and ``repro cache`` are two grids over :func:`run_grid`.

Every run is traced through a :class:`~repro.sim.HashingTracer`, so a
cell has a fingerprint: same seed + same cell ⇒ byte-identical trace,
which the CLI and CI verify back-to-back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from ..api import registry
from ..checkers import (
    check_bounded_staleness,
    check_convergence,
    check_linearizability,
    check_monotonic_reads,
    check_monotonic_writes,
    check_read_your_writes,
    check_writes_follow_reads,
    stale_read_fraction,
    staleness_by_tier,
)
from ..sim import FixedLatency, HashingTracer, Network, Simulator
from ..workload import YCSBWorkload, run_workload
from .nemesis import Nemesis
from .plan import FaultPlan, resolve_plan

#: Statuses a conformance check can land on.
PASS, FAIL, UNKNOWN, WAIVED = "pass", "fail", "unknown", "waived"

SESSION_CHECKERS = {
    "ryw": check_read_your_writes,
    "mr": check_monotonic_reads,
    "mw": check_monotonic_writes,
    "wfr": check_writes_follow_reads,
}

#: The read mode each protocol's claims are defined against: what a
#: bare cell records, and what a cache in front of it fetches on a miss.
READ_MODES: dict[str, str] = {
    "quorum": "quorum",
    "quorum_siblings": "quorum",
    "causal": "local",
    "timeline": "critical",
    "bayou": "tentative",
    "primary_backup": "primary",
    "chain": "tail",
    "multipaxos": "log",
    "pileus": "sla",
    "cached": "cached",
}


def cacheable_protocols() -> list[str]:
    """Protocols a cache policy can wrap: every registered adapter but
    the cache wrapper itself."""
    return [name for name in registry.names() if name != "cached"]


@dataclass
class CheckResult:
    """One guarantee's verdict for one cell."""

    guarantee: str
    status: str                   # pass | fail | unknown | waived
    detail: str = ""
    claimed: bool = False
    checked_ops: int = 0


@dataclass
class CellReport:
    """One (protocol, policy) cell's full outcome; ``policy`` is None
    for the bare adapter."""

    protocol: str
    policy: str | None
    plan: str
    seed: int
    fingerprint: str
    ops_ok: int = 0
    ops_failed: int = 0
    hit_rate: float = 0.0
    stale_fraction: float = 0.0
    stale_by_tier: dict = field(default_factory=dict)
    results: list[CheckResult] = field(default_factory=list)

    @property
    def name(self) -> str:
        return f"{self.protocol}/{self.policy}" if self.policy \
            else self.protocol

    @property
    def ok(self) -> bool:
        return all(r.status != FAIL for r in self.results)

    def check(self, guarantee: str) -> CheckResult | None:
        return next((r for r in self.results if r.guarantee == guarantee),
                    None)


def _grade(caps: Any, guarantee: str, claimed: bool, verdict: Any,
           reason: str = "not claimed", passed: str = "") -> CheckResult:
    """The one verdict → status rule: a documented waiver wins over a
    claim; a claim must PASS (or is vacuously UNKNOWN); waived and
    unclaimed guarantees are still measured and say whether they held.

    ``verdict`` is the checker's, or None when there was nothing to
    measure — ``reason`` then says why, as it does for an unclaimed
    guarantee.
    """
    waiver = caps.waiver_for(guarantee)
    if waiver is None and guarantee in SESSION_CHECKERS:
        # A blanket "session" waiver covers all four guarantees.
        waiver = caps.waiver_for("session")
    checked = verdict.checked_ops if verdict is not None else 0
    measured = "" if verdict is None else (
        " (held on this run)" if verdict.ok else " (violated on this run)")
    if waiver:
        return CheckResult(guarantee, WAIVED, waiver + measured, claimed,
                           checked)
    if not claimed or verdict is None:
        return CheckResult(guarantee, UNKNOWN, reason + measured, claimed,
                           checked)
    if checked == 0:
        return CheckResult(guarantee, UNKNOWN,
                           "vacuous: no checkable operations", claimed)
    if verdict.ok:
        return CheckResult(guarantee, PASS, passed, claimed, checked)
    return CheckResult(
        guarantee, FAIL, "; ".join(str(v) for v in verdict.violations[:3]),
        claimed, checked,
    )


def run_cell(
    protocol: str,
    policy: str | None = None,
    seed: int = 42,
    plan: FaultPlan | str | None = "partitions",
    nodes: int = 5,
    clients: int = 3,
    ops: int = 120,
    op_timeout: float = 250.0,
    think_time: float = 2.0,
    preset: str = "A",
    records: int = 24,
    ttl: float = 60.0,
    capacity: int = 64,
    flush_delay: float = 10.0,
    heal: bool = True,
) -> CellReport:
    """One conformance cell, isolated in a fresh simulator.

    ``policy=None`` runs the bare adapter; a cache policy wraps it in
    ``registry.build("cached", protocol=...)`` (``ttl`` / ``capacity``
    / ``flush_delay`` tune that cache) and records the history at the
    cache boundary.  ``plan`` (a :class:`FaultPlan`, a built-in name,
    ``"random"`` or None) runs for the duration of the workload; with
    ``heal`` the run ends with heal + two settle rounds before grading.
    """
    plan = resolve_plan(plan, seed)
    tracer = HashingTracer()
    sim = Simulator(seed, tracer=tracer)
    network = Network(sim, latency=FixedLatency(2.0))
    if policy is None:
        store = registry.build(protocol, sim, network, nodes=nodes)
        read_mode = READ_MODES.get(protocol)
    else:
        store = registry.build(
            "cached", sim, network, protocol=protocol, policy=policy,
            nodes=nodes, ttl=ttl, capacity=capacity,
            flush_delay=flush_delay, miss_mode=READ_MODES.get(protocol),
        )
        read_mode = READ_MODES["cached"]

    nemesis = Nemesis(plan, seed=seed) if plan is not None else None
    workload = YCSBWorkload(preset, records=records, seed=seed)
    result = run_workload(
        store, workload.take(ops), clients=clients, timeout=op_timeout,
        think_time=think_time, read_mode=read_mode, nemesis=nemesis,
    )
    if heal:
        if nemesis is not None:
            nemesis.heal_all()
        sim.run()
        # Two settle rounds: the first syncs data (and drains
        # write-behind), the second lets derived state (commit orders,
        # cascaded installs) close.
        for _round in range(2):
            store.settle()
            sim.run()

    history = result.history
    caps = store.capabilities
    assessable = heal or plan is None or not any(
        s.fault in ("crash", "partition", "drop", "slow_link")
        for s in plan.steps)
    checks = [_grade(
        caps, "convergence", caps.eventually_convergent,
        check_convergence(store.snapshots()) if assessable else None,
        reason="not claimed by capabilities" if assessable else
        "run ended mid-fault without a final heal; convergence is not "
        "assessable",
    )]
    if (read_mode or caps.default_read_mode) in caps.linearizable_read_modes:
        checks.append(_grade(caps, "linearizable", True,
                             check_linearizability(history)))
    for guarantee, checker in SESSION_CHECKERS.items():
        checks.append(_grade(caps, guarantee,
                             guarantee in caps.session_guarantees,
                             checker(history)))
    if caps.staleness_bound_ms is None:
        checks.append(_grade(
            caps, "bounded-staleness", False, None,
            reason="no declared bound (weak backing reads can exceed any "
                   "TTL)",
        ))
    else:
        # The slack is the per-op timeout: an entry filled by a read
        # that took the full timeout carries state up to that much
        # older than its install time (plus any in-flight write acked
        # after the fetch).
        bound = caps.staleness_bound_ms + op_timeout
        checks.append(_grade(
            caps, "bounded-staleness", True,
            check_bounded_staleness(history, max_time=bound),
            passed=f"t-visibility <= {bound:.0f}ms",
        ))

    cache_stats = getattr(store, "cache_stats", None)
    return CellReport(
        protocol=protocol,
        policy=policy,
        plan=plan.name if plan is not None else "none",
        seed=seed,
        fingerprint=tracer.hexdigest(),
        ops_ok=result.ops_ok,
        ops_failed=result.ops_failed,
        hit_rate=cache_stats()["hit_rate"] if cache_stats else 0.0,
        stale_fraction=stale_read_fraction(history),
        stale_by_tier={
            tier: round(ts.stale_fraction, 4)
            for tier, ts in sorted(staleness_by_tier(history).items(),
                                   key=lambda item: repr(item[0]))
        },
        results=checks,
    )


def run_grid(
    protocols: Iterable[str] | None = None,
    policies: Iterable[str | None] = (None,),
    **cell_kwargs: Any,
) -> list[CellReport]:
    """Every policy over every protocol (default: all registered).  A
    cache policy over the cache adapter itself is not a cell."""
    cacheable = cacheable_protocols()
    return [
        run_cell(protocol, policy, **cell_kwargs)
        for protocol in protocols or registry.names()
        for policy in policies
        if policy is None or protocol in cacheable
    ]


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def format_reports(reports: list[CellReport]) -> str:
    """The verdict table ``repro chaos`` and ``repro cache`` print."""
    lines: list[str] = []
    if reports:
        lines.append(f"conformance: plan={reports[0].plan} "
                     f"seed={reports[0].seed}")
    header = (f"{'protocol':<17}{'policy':<14}{'guarantee':<18}"
              f"{'status':<9}detail")
    rule = "-" * max(60, len(header))
    lines += [header, rule]
    for report in reports:
        summary = (f"ok={report.ops_ok} failed={report.ops_failed} "
                   f"hit={report.hit_rate:.0%} "
                   f"stale={report.stale_fraction:.0%} "
                   f"fp={report.fingerprint[:12]}")
        lines.append(
            f"{report.protocol:<17}{report.policy or 'uncached':<14}"
            f"{'(workload)':<18}{'':<9}{summary}"
        )
        for check in report.results:
            detail = check.detail
            if check.status == PASS and check.checked_ops and not detail:
                detail = f"{check.checked_ops} ops checked"
            if len(detail) > 58:
                detail = detail[:55] + "..."
            lines.append(f"{'':<31}{check.guarantee:<18}"
                         f"{check.status.upper():<9}{detail}")
    lines.append(rule)
    failed = [report.name for report in reports if not report.ok]
    if failed:
        lines.append(f"FAIL: {', '.join(failed)}")
    else:
        lines.append(f"PASS: {len(reports)} cell(s) conform")
    return "\n".join(lines)
