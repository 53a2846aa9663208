"""Analysis tooling: latency stats, metrics registry, PBS, tables."""

from .metrics import LatencyStats
from .registry import Counter, Gauge, MetricsRegistry
from .pbs import (
    PBSResult,
    WARSModel,
    exponential,
    simulate_k_staleness,
    simulate_t_visibility,
)
from .tables import print_table, render_table

__all__ = [
    "LatencyStats",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "WARSModel",
    "PBSResult",
    "exponential",
    "simulate_t_visibility",
    "simulate_k_staleness",
    "render_table",
    "print_table",
]
