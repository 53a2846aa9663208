"""Staleness metrics and bounded-staleness checking.

Bounded staleness is the tutorial's "quantified eventual consistency":
a read may be stale, but by at most *k* versions (k-staleness) or *t*
milliseconds (t-visibility / Δ-atomicity).  These functions measure
both quantities for every read in a history and check a declared
t-visibility bound; the PBS experiment (E2) aggregates them into the
staleness distributions the quorum sweep reports.

Histories recorded at a cache boundary tag each op with the serving
tier (``Operation.tier``: ``"cache"`` hit vs ``"store"`` backing
read).  Staleness is always measured against *all* completed writes —
the authoritative timeline — and :func:`staleness_by_tier` attributes
it to the tier that caused it, breaking the whole history down per
tier in one pass.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Hashable

from ..histories import History, Operation
from .base import Verdict


@dataclass(frozen=True)
class ReadStaleness:
    """Staleness measurements for one read."""

    op: Operation
    versions_behind: int      # k-staleness: newest completed version - read version
    time_behind: float        # how long ago the read's version was superseded (0 if fresh)

    @property
    def fresh(self) -> bool:
        return self.versions_behind == 0


def measure_staleness(history: History) -> list[ReadStaleness]:
    """Per-read staleness relative to writes completed before the read
    *started* (writes concurrent with the read never count as missed).
    Every completed write counts, whichever tier recorded it.
    """
    out: list[ReadStaleness] = []
    # Per key, over its completed writes in completion order: end times,
    # versions, running maximum version (non-decreasing, so bisectable).
    timelines: dict = {}
    for read in history.reads():
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


def check_bounded_staleness(history: History, max_time: float) -> Verdict:
    """Check every read against a t-visibility bound of ``max_time``
    ms."""
    verdict = Verdict(f"bounded-staleness(t<={max_time}ms)")
    for measurement in measure_staleness(history):
        verdict.checked_ops += 1
        if measurement.time_behind > max_time:
            verdict.add(
                f"read of {measurement.op.key!r} returned a value "
                f"superseded {measurement.time_behind:.2f}ms earlier "
                f"(bound {max_time}ms)",
                ops=(measurement.op,),
            )
    return verdict


def stale_read_fraction(history: History) -> float:
    """Fraction of reads that missed at least one completed write."""
    measurements = measure_staleness(history)
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
