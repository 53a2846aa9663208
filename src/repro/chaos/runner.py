"""The conformance engine: run one stack under a fault plan, grade its claims.

One cell = one **stack**, outer layer first with a registered protocol
innermost: ``quorum``, ``sharded:multipaxos``,
``cached[write_through]:sharded:quorum`` (:func:`build_stack`).  The
cell drives a YCSB-style closed-loop workload in a fresh seeded
simulator while a :class:`~repro.chaos.Nemesis` executes the fault
plan, heals, quiesces, and grades what the outer layer's
:class:`~repro.api.StoreCapabilities` declares (:mod:`repro.api.layers`)
on the history its client recorded: convergence, linearizability (when
the recorded read mode claims it), all four session guarantees, bounded
staleness against ``staleness_bound_ms``, and durability, which no
store claims.  Every row goes through one rule (:func:`_grade`) that
never asks which layers the stack has; ``repro chaos --stack S`` is a
grid over :func:`run_grid`.

Every run is traced through a :class:`~repro.sim.HashingTracer`, so a
cell has a fingerprint: same seed + same cell ⇒ byte-identical trace,
which the CLI and CI verify back-to-back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from ..api import registry
from ..cache import POLICIES, CachedStore
from ..checkers import (
    check_bounded_staleness,
    check_convergence,
    check_linearizability,
    check_monotonic_reads,
    check_monotonic_writes,
    check_no_lost_writes,
    check_read_your_writes,
    check_writes_follow_reads,
    read_back,
    stale_read_fraction,
    staleness_by_tier,
)
from ..sharding import ShardedStore
from ..sim import FixedLatency, HashingTracer, Network, Simulator
from ..workload import YCSBWorkload, run_workload
from .nemesis import Nemesis
from .plan import FaultPlan, resolve_plan

#: Per-op timeout (ms) and think time between a client's ops.
OP_TIMEOUT, THINK_TIME = 250.0, 2.0
#: Clean entries a cell's cache holds.
CACHE_CAPACITY = 64
#: Shard groups a ``sharded:`` layer routes over.
SHARDS = 3

#: Statuses a conformance check can land on.
PASS, FAIL, UNKNOWN, WAIVED = "pass", "fail", "unknown", "waived"

SESSION_CHECKERS = {
    "ryw": check_read_your_writes,
    "mr": check_monotonic_reads,
    "mw": check_monotonic_writes,
    "wfr": check_writes_follow_reads,
}

#: The read mode a protocol's claims are defined against (what a bare
#: cell records, and what a cache in front of it fetches on a miss),
#: where it is not the store's default read mode.
READ_MODES: dict[str, str] = {"timeline": "critical"}


def parse_stack(stack: str) -> tuple[list[str], str]:
    """``stack`` as (its layers outermost first, its protocol); a
    ValueError for a stack the builder does not compose."""
    *layers, protocol = stack.split(":")
    if protocol not in registry.names():
        raise ValueError(f"stack {stack!r}: unknown protocol {protocol!r}; "
                         f"available: {', '.join(registry.names())}")
    inner = protocol
    for layer in reversed(layers):
        if layer == "sharded":
            if inner != protocol or protocol == "cached":
                raise ValueError(f"stack {stack!r}: sharded: must sit "
                                 f"directly on a protocol, not on {inner!r}")
        elif not (layer.startswith("cached[") and layer.endswith("]")
                  and layer[7:-1] in POLICIES):
            raise ValueError(f"stack {stack!r}: unknown layer {layer!r}; "
                             f"available: sharded, cached[POLICY] for "
                             f"POLICY in {', '.join(POLICIES)}")
        elif inner.startswith("cached"):
            raise ValueError(f"stack {stack!r}: a cache over {inner!r}")
        inner = layer
    return layers, protocol


def build_stack(stack: str, sim: Simulator, network: Network, nodes: int,
                ttl: float, flush_delay: float) -> tuple[Any, str]:
    """Build ``stack`` innermost first: the store, and the read mode its
    client records (the protocol's :data:`READ_MODES` entry or default
    read mode, or ``"cached"`` through a cache, which fetches that mode
    on a miss)."""
    layers, protocol = parse_stack(stack)
    read_mode = READ_MODES.get(
        protocol, registry.get(protocol).capabilities.default_read_mode)
    if layers[-1:] == ["sharded"]:
        store = ShardedStore(sim, network, protocol=protocol, shards=SHARDS,
                             nodes_per_shard=nodes)
    else:
        store = registry.build(protocol, sim, network, nodes=nodes)
    if layers and layers[0] != "sharded":
        store = CachedStore(store, policy=layers[0][7:-1], ttl=ttl,
                            capacity=CACHE_CAPACITY, flush_delay=flush_delay,
                            miss_mode=read_mode)
        read_mode = store.capabilities.default_read_mode
    return store, read_mode


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
    """One stack's full outcome under one plan and seed."""

    stack: str
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
    stack: str,
    seed: int = 42,
    plan: FaultPlan | str | None = "partitions",
    nodes: int = 5,
    clients: int = 3,
    ops: int = 120,
    preset: str = "A",
    records: int = 24,
    ttl: float = 60.0,
    flush_delay: float = 10.0,
) -> CellReport:
    """One conformance cell, isolated in a fresh simulator.

    ``stack`` is built by :func:`build_stack` (``nodes`` replicas per
    group; ``ttl`` / ``flush_delay`` tune a cache layer), and the
    history is recorded at its outer layer.  ``plan`` (a
    :class:`FaultPlan`, a built-in name, ``"random"`` or None) runs for
    the duration of the workload; the run ends with heal + two settle
    rounds before grading.
    """
    plan = resolve_plan(plan, seed)
    tracer = HashingTracer()
    sim = Simulator(seed, tracer=tracer)
    network = Network(sim, latency=FixedLatency(2.0))
    store, read_mode = build_stack(stack, sim, network, nodes, ttl,
                                   flush_delay)

    nemesis = Nemesis(plan, seed=seed) if plan is not None else None
    workload = YCSBWorkload(preset, records=records, seed=seed)
    result = run_workload(
        store, workload.take(ops), clients=clients, timeout=OP_TIMEOUT,
        think_time=THINK_TIME, read_mode=read_mode, nemesis=nemesis,
    )
    if nemesis is not None:
        nemesis.heal_all()
    sim.run()
    # Two settle rounds: the first syncs data (and drains write-behind),
    # the second lets derived state (commit orders, cascaded installs)
    # close.
    for _round in range(2):
        store.settle()
        sim.run()

    history = result.history
    caps = store.capabilities
    checks = [_grade(caps, "convergence", True,
                     check_convergence(store.snapshots()))]
    if read_mode in caps.linearizable_read_modes:
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
        bound = caps.staleness_bound_ms + OP_TIMEOUT
        checks.append(_grade(
            caps, "bounded-staleness", True,
            check_bounded_staleness(history, max_time=bound),
            passed=f"t-visibility <= {bound:.0f}ms",
        ))

    cache_stats = getattr(store, "cache_stats", None)
    report = CellReport(
        stack=stack,
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
    # Read back last: its reads run after the fingerprint and the read
    # statistics above are taken, so they move none of them.
    written = {op.key for op in history if op.is_write}
    checks.append(_grade(caps, "durability", False, check_no_lost_writes(
        history, read_back(store, written))))
    return report


def run_grid(stacks: Iterable[str] | None = None,
             **cell_kwargs: Any) -> list[CellReport]:
    """One cell per stack (default: every registered protocol, bare)."""
    return [run_cell(stack, **cell_kwargs)
            for stack in stacks or registry.names()]


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def format_reports(reports: list[CellReport]) -> str:
    """The verdict table ``repro chaos`` prints."""
    lines: list[str] = []
    if reports:
        lines.append(f"conformance: plan={reports[0].plan} "
                     f"seed={reports[0].seed}")
    width = max([29] + [len(report.stack) for report in reports]) + 2
    header = f"{'stack':<{width}}{'guarantee':<18}{'status':<9}detail"
    rule = "-" * max(60, len(header))
    lines += [header, rule]
    for report in reports:
        summary = (f"ok={report.ops_ok} failed={report.ops_failed} "
                   f"hit={report.hit_rate:.0%} "
                   f"stale={report.stale_fraction:.0%} "
                   f"fp={report.fingerprint[:12]}")
        lines.append(f"{report.stack:<{width}}{'(workload)':<18}"
                     f"{'':<9}{summary}")
        for check in report.results:
            detail = check.detail
            if check.status == PASS and check.checked_ops and not detail:
                detail = f"{check.checked_ops} ops checked"
            if len(detail) > 58:
                detail = detail[:55] + "..."
            lines.append(f"{'':<{width}}{check.guarantee:<18}"
                         f"{check.status.upper():<9}{detail}")
    lines.append(rule)
    failed = [report.stack for report in reports if not report.ok]
    if failed:
        lines.append(f"FAIL: {', '.join(failed)}")
    else:
        lines.append(f"PASS: {len(reports)} cell(s) conform")
    return "\n".join(lines)
