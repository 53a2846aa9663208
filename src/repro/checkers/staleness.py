"""Staleness metrics and bounded-staleness checking.

Bounded staleness is the tutorial's "quantified eventual consistency":
a read may be stale, but by at most *k* versions (k-staleness) or *t*
milliseconds (t-visibility / Δ-atomicity).  These functions measure
both quantities for every read in a history and check declared bounds;
the PBS experiment (E2) aggregates them into the staleness
distributions the quorum sweep reports.

Histories recorded at a cache boundary tag each op with the serving
tier (``Operation.tier``: ``"cache"`` hit vs ``"store"`` backing
read).  Staleness is always measured against *all* completed writes —
the authoritative timeline — but every function here accepts a
``tier=`` filter so staleness can be attributed to the tier that
caused it, and :func:`staleness_by_tier` breaks the whole history down
per tier in one pass.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Any, Hashable

from ..histories import History, Operation
from .base import Verdict

#: Sentinel for "no tier filter" — ``None`` is itself a meaningful
#: tier value (ops recorded below any cache).
ANY_TIER = object()


@dataclass(frozen=True)
class ReadStaleness:
    """Staleness measurements for one read."""

    op: Operation
    versions_behind: int      # k-staleness: newest completed version - read version
    time_behind: float        # how long ago the read's version was superseded (0 if fresh)

    @property
    def fresh(self) -> bool:
        return self.versions_behind == 0


def measure_staleness(
    history: History, tier: Any = ANY_TIER
) -> list[ReadStaleness]:
    """Per-read staleness relative to writes completed before the read
    *started* (writes concurrent with the read never count as missed).

    ``tier`` restricts which *reads* are measured (e.g. ``"cache"``
    for hits only); the write timeline stays authoritative — every
    completed write counts regardless of the tier that recorded it.
    """
    out: list[ReadStaleness] = []
    # Per key, over its completed writes in completion order: end times,
    # versions, running maximum version (non-decreasing, so bisectable).
    timelines: dict = {}
    for read in history.reads():
        if tier is not ANY_TIER and read.tier != tier:
            continue
        if read.key not in timelines:
            writes = history.writes_by_end(read.key)
            versions = [w.version for w in writes]
            timelines[read.key] = (
                [w.end for w in writes], versions, list(accumulate(versions, max)))
        ends, versions, newest = timelines[read.key]
        # Only ends[:visible] completed before the read started; the first
        # of them to supersede it is where the running maximum passes it.
        visible = bisect_right(ends, read.start)
        first = bisect_right(newest, read.version, 0, visible)
        behind = sum(1 for v in versions[first:visible] if v > read.version)
        time_behind = max(0.0, read.start - ends[first]) if behind else 0.0
        out.append(ReadStaleness(read, behind, time_behind))
    return out


def check_bounded_staleness(
    history: History,
    max_versions: int | None = None,
    max_time: float | None = None,
    tier: Any = ANY_TIER,
) -> Verdict:
    """Check every read against a k-staleness and/or t-visibility bound.

    ``tier`` narrows the check to reads served by one tier — e.g. a
    cache declares a TTL bound for its hits while the backing store
    declares its own."""
    if max_versions is None and max_time is None:
        raise ValueError("provide max_versions and/or max_time")
    bound_bits = []
    if max_versions is not None:
        bound_bits.append(f"k<={max_versions}")
    if max_time is not None:
        bound_bits.append(f"t<={max_time}ms")
    verdict = Verdict(f"bounded-staleness({','.join(bound_bits)})")
    for measurement in measure_staleness(history, tier=tier):
        verdict.checked_ops += 1
        if (
            max_versions is not None
            and measurement.versions_behind > max_versions
        ):
            verdict.add(
                f"read of {measurement.op.key!r} was "
                f"{measurement.versions_behind} versions behind "
                f"(bound {max_versions})",
                ops=(measurement.op,),
            )
        elif max_time is not None and measurement.time_behind > max_time:
            verdict.add(
                f"read of {measurement.op.key!r} returned a value "
                f"superseded {measurement.time_behind:.2f}ms earlier "
                f"(bound {max_time}ms)",
                ops=(measurement.op,),
            )
    return verdict


def stale_read_fraction(history: History, tier: Any = ANY_TIER) -> float:
    """Fraction of reads that missed at least one completed write."""
    measurements = measure_staleness(history, tier=tier)
    if not measurements:
        return 0.0
    return sum(1 for m in measurements if not m.fresh) / len(measurements)


@dataclass(frozen=True)
class TierStaleness:
    """Aggregate staleness of the reads one serving tier answered."""

    tier: Hashable
    reads: int
    stale: int
    max_versions_behind: int
    max_time_behind: float

    @property
    def stale_fraction(self) -> float:
        return self.stale / self.reads if self.reads else 0.0


def staleness_by_tier(history: History) -> dict[Hashable, TierStaleness]:
    """Per-tier staleness attribution in one pass.

    Groups every measured read by ``Operation.tier`` and aggregates,
    so a cache-fronted run can answer "is the staleness coming from
    hits or from the backing store?" directly.  Histories recorded
    below any cache land under the single ``None`` tier.
    """
    grouped: dict[Hashable, list[ReadStaleness]] = {}
    for measurement in measure_staleness(history):
        grouped.setdefault(measurement.op.tier, []).append(measurement)
    return {
        tier: TierStaleness(
            tier=tier,
            reads=len(measurements),
            stale=sum(1 for m in measurements if not m.fresh),
            max_versions_behind=max(
                (m.versions_behind for m in measurements), default=0
            ),
            max_time_behind=max(
                (m.time_behind for m in measurements), default=0.0
            ),
        )
        for tier, measurements in grouped.items()
    }
