"""A sim-wide registry of named counters, gauges, and latency stats.

Every :class:`repro.sim.Simulator` owns one
:class:`MetricsRegistry` (``sim.metrics``).  The network and the
replication protocols publish their operational counters into it
under dotted names (``net.messages_sent``, ``quorum.read_repairs``,
``gossip.rounds_started``, …) instead of scattering ad-hoc ints and
dicts, so any experiment can read — or print — every metric of a run
from one place::

    sim = Simulator(seed=7)
    ...  # run a workload
    print(sim.metrics.render(prefix="quorum"))
    snapshot = sim.metrics.snapshot()

Handles are get-or-create: ``registry.counter(name)`` returns the
same :class:`Counter` every time, so publishers keep a reference and
increment it directly on hot paths.
"""

from __future__ import annotations

from typing import Iterator

from .metrics import LatencyStats


class Counter:
    """A monotonically increasing named count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A named point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Gauge {self.name}={self.value}>"


class MetricsRegistry:
    """Named counters / gauges / :class:`LatencyStats`, get-or-create."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._latencies: dict[str, LatencyStats] = {}
        self._groups: dict[tuple, dict[str, Counter]] = {}

    # -- handles -------------------------------------------------------
    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def counter_group(self, prefix: str, names: tuple[str, ...]) -> dict[str, Counter]:
        """``{name: counter(f"{prefix}.{name}")}``, built once: for a
        publisher connected many times (a client per session)."""
        group = self._groups.get((prefix, names))
        if group is None:
            group = self._groups[prefix, names] = {
                name: self.counter(f"{prefix}.{name}") for name in names}
        return group

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def latency(self, name: str) -> LatencyStats:
        stats = self._latencies.get(name)
        if stats is None:
            stats = self._latencies[name] = LatencyStats()
        return stats

    # -- reading -------------------------------------------------------
    def counters(self, prefix: str | None = None) -> dict[str, int]:
        return {
            name: counter.value
            for name, counter in sorted(self._counters.items())
            if prefix is None or name.startswith(prefix)
        }

    def gauges(self, prefix: str | None = None) -> dict[str, float]:
        return {
            name: gauge.value
            for name, gauge in sorted(self._gauges.items())
            if prefix is None or name.startswith(prefix)
        }

    def latencies(self, prefix: str | None = None) -> dict[str, LatencyStats]:
        return {
            name: stats
            for name, stats in sorted(self._latencies.items())
            if prefix is None or name.startswith(prefix)
        }

    def __contains__(self, name: str) -> bool:
        return (
            name in self._counters
            or name in self._gauges
            or name in self._latencies
        )

    def __iter__(self) -> Iterator[str]:
        yield from sorted(
            set(self._counters) | set(self._gauges) | set(self._latencies)
        )

    def snapshot(self) -> dict:
        """Everything, as plain data (latencies as their summaries)."""
        return {
            "counters": self.counters(),
            "gauges": self.gauges(),
            "latencies": {
                name: stats.summary()
                for name, stats in self.latencies().items()
            },
        }

    def render(self, prefix: str | None = None) -> str:
        """Aligned ``name  value`` lines, optionally prefix-filtered."""
        rows: list[tuple[str, str]] = []
        for name, value in self.counters(prefix).items():
            rows.append((name, str(value)))
        for name, value in self.gauges(prefix).items():
            rows.append((name, f"{value:g}"))
        for name, stats in self.latencies(prefix).items():
            summary = stats.summary()
            rows.append((
                name,
                f"n={summary['count']} mean={summary['mean']} "
                f"p50={summary['p50']} p99={summary['p99']}",
            ))
        if not rows:
            return "(no metrics)"
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)
