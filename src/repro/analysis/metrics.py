"""Latency metrics for experiment harnesses."""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class LatencyStats:
    """Streaming-ish latency collector (keeps samples; fine at sim scale)."""

    samples: list[float] = field(default_factory=list)

    def record(self, value: float) -> None:
        if value < 0:
            raise ValueError("latency cannot be negative")
        self.samples.append(value)

    def extend(self, values) -> None:
        for value in values:
            self.record(value)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        if not self.samples:
            return 0.0
        return sum(self.samples) / len(self.samples)

    def percentile(self, p: float) -> float:
        """Linear-interpolated percentile, p in [0, 100]."""
        if not 0 <= p <= 100:
            raise ValueError("percentile must be in [0, 100]")
        return _percentile_of(sorted(self.samples), p)

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p95(self) -> float:
        return self.percentile(95)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    def summary(self) -> dict:
        ordered = sorted(self.samples)  # once, for all four order statistics
        return {
            "count": len(ordered),
            "mean": round(self.mean, 3),
            "p50": round(_percentile_of(ordered, 50), 3),
            "p95": round(_percentile_of(ordered, 95), 3),
            "p99": round(_percentile_of(ordered, 99), 3),
            "max": round(ordered[-1] if ordered else 0.0, 3),
        }


def _percentile_of(ordered: list[float], p: float) -> float:
    """Linear interpolation at ``p`` percent into an ascending list."""
    if not ordered:
        return 0.0
    rank = (p / 100) * (len(ordered) - 1)
    low, high = math.floor(rank), math.ceil(rank)
    if low == high:
        return ordered[low]
    frac = rank - low
    return ordered[low] * (1 - frac) + ordered[high] * frac
