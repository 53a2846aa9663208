"""Phi-accrual failure detection (Hayashibara et al. 2004).

Binary timeout detectors answer "is the node dead?" with a yes/no that
must be tuned per deployment.  The phi-accrual detector instead emits a
*suspicion level* — phi — that grows continuously the longer a
heartbeat is overdue, scaled by the inter-arrival distribution the
detector has actually observed.  Consumers pick their own thresholds:
a low phi gates load-balancing decisions, a high phi gates membership
eviction.

We use the exponential-distribution approximation Cassandra ships
(CASSANDRA-2597): with mean observed inter-arrival ``m`` and time
``t`` since the last heartbeat,

    phi(t) = t / (m * ln 10)  =  0.4343 * t / m

so phi = 1 means the silence is ~10x less likely than usual, phi = 2
~100x, etc.  Deterministic: no wall clock, no randomness — callers
feed in simulated timestamps.
"""

from __future__ import annotations

from collections import deque

#: log10(e) — converts the exponential survival exponent to phi.
_LOG10_E = 0.4342944819032518
#: Inter-arrival intervals kept per peer.
WINDOW = 32
#: Intervals needed before the detector suspects anything.
MIN_SAMPLES = 3
#: Floor on the estimated mean interval (ms), so a burst of
#: back-to-back heartbeats cannot make phi explode afterwards.
MIN_INTERVAL_FLOOR = 1.0


class PhiAccrualDetector:
    """Suspicion level for one monitored peer.

    ``heartbeat(now)`` records an arrival; ``phi(now)`` reads the
    current suspicion.  Before :data:`MIN_SAMPLES` intervals the
    detector answers 0.0 — it refuses to suspect on no evidence.
    """

    def __init__(self) -> None:
        self._intervals: deque[float] = deque(maxlen=WINDOW)
        self._last: float | None = None

    def heartbeat(self, now: float) -> None:
        """Record a heartbeat arrival at simulated time ``now``."""
        if self._last is not None:
            self._intervals.append(max(0.0, now - self._last))
        self._last = now

    @property
    def last_heartbeat(self) -> float | None:
        return self._last

    def mean_interval(self) -> float | None:
        """Mean observed inter-arrival, or None before MIN_SAMPLES."""
        if len(self._intervals) < MIN_SAMPLES:
            return None
        mean = sum(self._intervals) / len(self._intervals)
        return max(mean, MIN_INTERVAL_FLOOR)

    def phi(self, now: float) -> float:
        """Current suspicion level; 0.0 while under-sampled."""
        mean = self.mean_interval()
        if mean is None or self._last is None:
            return 0.0
        elapsed = now - self._last
        if elapsed <= 0.0:
            return 0.0
        return _LOG10_E * elapsed / mean

    def reset(self) -> None:
        """Forget history (peer restarted with a new incarnation)."""
        self._intervals.clear()
        self._last = None
