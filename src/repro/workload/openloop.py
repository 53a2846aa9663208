"""The open-loop traffic engine: arrival-time-driven op scheduling.

The closed-loop :class:`~repro.workload.driver.WorkloadDriver` keeps at
most one op in flight per lane, so offered load *self-throttles* as the
store slows down — it can measure latency at a fixed concurrency but
can never push a store past saturation.  Real traffic does not wait:
users arrive when they arrive.  This module schedules op *starts* by
arrival time, independent of completion, across a pool of lightweight
sessions — the open-loop model (Schroeder et al., "Open Versus Closed:
A Cautionary Tale") that exposes the throughput–latency knee and the
congestion-collapse regimes admission control exists for.

Arrival processes
-----------------
All processes yield *relative* arrival times in simulated ms (offsets
from the driver's start), are driven by their own ``random.Random``
seed, and re-seed on every ``iter()`` — the same process object
replays a byte-identical trace.

* :class:`PoissonArrivals` — homogeneous Poisson at ``rate`` ops/sec.
* :class:`DiurnalArrivals` — sinusoidal day/night rate curve
  (non-homogeneous Poisson via Lewis–Shedler thinning).
* :class:`FlashCrowdArrivals` — baseline rate, a sudden spike at
  ``spike_at`` held for ``hold`` ms, then exponential decay back to
  baseline (thinning again).

Any other iterable of ascending offsets works as well: a list replays
a recorded production trace, or a hand-built worst case.

Shape::

    arrivals = PoissonArrivals(rate=800, seed=7)
    ops = YCSBWorkload("B", records=1000, seed=7)   # zipfian hot keys
    result = run_workload(store, ops, arrivals=arrivals,
                          clients=1000, timeout=500.0, until=10_000)
    result.goodput, result.shed, result.read_latency.percentile(99)

Ops come from the same generators the closed-loop driver consumes
(``sleep`` specs are skipped — pacing is the arrival process's job);
every completed op lands in a
:class:`~repro.histories.TokenHistoryRecorder` history, so the checkers
run unchanged on open-loop runs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from ..analysis import LatencyStats
from ..errors import OverloadedError
from ..histories import History
from .driver import OpCore, first_call
from .ycsb import OpSpec

__all__ = [
    "PoissonArrivals",
    "DiurnalArrivals",
    "FlashCrowdArrivals",
    "OpenLoopDriver",
    "OpenLoopResult",
]


# ----------------------------------------------------------------------
# Arrival processes
# ----------------------------------------------------------------------
class PoissonArrivals:
    """Homogeneous Poisson arrivals at ``rate`` ops/sec."""

    def __init__(self, rate: float, seed: int = 0) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate
        self.seed = seed

    def __iter__(self) -> Iterator[float]:
        rng = random.Random(self.seed)
        per_ms = self.rate / 1000.0
        t = 0.0
        while True:
            t += rng.expovariate(per_ms)
            yield t


class _ThinnedArrivals:
    """Non-homogeneous Poisson via Lewis–Shedler thinning: candidates
    arrive at the peak rate; each survives with probability
    ``rate_at(t) / peak``.  Subclasses define ``peak`` (ops/sec) and
    ``rate_at(t)`` (t in ms)."""

    peak: float
    seed: int

    def rate_at(self, t: float) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def __iter__(self) -> Iterator[float]:
        rng = random.Random(self.seed)
        per_ms = self.peak / 1000.0
        t = 0.0
        while True:
            t += rng.expovariate(per_ms)
            if rng.random() * self.peak <= self.rate_at(t):
                yield t


class DiurnalArrivals(_ThinnedArrivals):
    """A day/night sine curve between ``low`` and ``high`` ops/sec.

    ``period`` is the full cycle length in ms (default one simulated
    "day" compressed to 60 s); the rate starts at ``low`` (midnight)
    and peaks at ``high`` half a period in.
    """

    def __init__(self, low: float, high: float, period: float = 60_000.0,
                 seed: int = 0) -> None:
        if low < 0 or high <= 0 or high < low:
            raise ValueError("need 0 <= low <= high, high > 0")
        if period <= 0:
            raise ValueError("period must be positive")
        self.low = low
        self.high = high
        self.period = period
        self.peak = high
        self.seed = seed

    def rate_at(self, t: float) -> float:
        phase = (1.0 - math.cos(2.0 * math.pi * t / self.period)) / 2.0
        return self.low + (self.high - self.low) * phase


class FlashCrowdArrivals(_ThinnedArrivals):
    """Baseline traffic with one flash-crowd spike.

    Rate is ``base`` until ``spike_at``, jumps to ``spike`` for
    ``hold`` ms, then decays back toward ``base`` exponentially with
    time constant ``decay`` ms — the canonical shape of a link going
    viral and losing steam.
    """

    def __init__(self, base: float, spike: float, spike_at: float,
                 hold: float = 1000.0, decay: float = 2000.0,
                 seed: int = 0) -> None:
        if base < 0 or spike <= 0 or spike < base:
            raise ValueError("need 0 <= base <= spike, spike > 0")
        if spike_at < 0 or hold < 0 or decay <= 0:
            raise ValueError("spike_at/hold must be >= 0, decay > 0")
        self.base = base
        self.spike = spike
        self.spike_at = spike_at
        self.hold = hold
        self.decay = decay
        self.peak = spike
        self.seed = seed

    def rate_at(self, t: float) -> float:
        if t < self.spike_at:
            return self.base
        if t <= self.spike_at + self.hold:
            return self.spike
        elapsed = t - self.spike_at - self.hold
        return self.base + (self.spike - self.base) * math.exp(
            -elapsed / self.decay
        )


# ----------------------------------------------------------------------
# Result
# ----------------------------------------------------------------------
@dataclass
class OpenLoopResult:
    """What an open-loop run produced.

    ``offered`` counts arrivals that fired; ``ok``/``failed`` partition
    the completed ops (``shed`` is the subset of failures that were
    overload rejections); ``in_flight`` counts ops the run cut off
    before they settled.  ``duration`` spans the *offered-traffic
    window*, so :attr:`goodput` is completions per second of offered
    load — the number that collapses under congestion.
    """

    history: History
    duration: float
    offered: int
    ok: int
    failed: int
    shed: int
    in_flight: int
    read_latency: LatencyStats
    write_latency: LatencyStats
    sessions_used: int

    @property
    def offered_rate(self) -> float:
        """Arrivals per simulated second."""
        if self.duration <= 0:
            return 0.0
        return self.offered / (self.duration / 1000.0)

    @property
    def goodput(self) -> float:
        """Successfully completed ops per simulated second."""
        if self.duration <= 0:
            return 0.0
        return self.ok / (self.duration / 1000.0)

    @property
    def ops_ok(self) -> int:
        return self.ok

    @property
    def ops_failed(self) -> int:
        return self.failed


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
class OpenLoopDriver(OpCore):
    """Issue ops at externally generated arrival times.

    Unlike the closed-loop driver there are no lane processes: each
    arrival picks a session from a lazily created pool (uniformly, by
    a seeded RNG, so traces replay byte-identically), fires the op
    through the shared :class:`~repro.workload.driver.OpCore`, and
    registers a completion callback — thousands of concurrent ops
    cost one outstanding future each, not one generator frame.

    ``until`` (on :meth:`start`/:meth:`run`) bounds the arrival window
    in absolute simulated time; ops in flight at the cutoff are given
    ``timeout`` ms of grace to settle.  Rate-based arrival processes
    are infinite — bound the run with ``until`` or ``max_ops``.
    """

    def __init__(
        self,
        store: Any,
        arrivals: Iterable[float],
        ops: Iterable[OpSpec],
        sessions: int = 1000,
        retry: Any = None,
        timeout: float | None = 1000.0,
        max_ops: int | None = None,
        seed: int = 0,
    ) -> None:
        if sessions < 1:
            raise ValueError("need at least one session")
        super().__init__(store.sim)
        self.store = store
        self.arrivals = arrivals
        self.ops = ops
        self.sessions = sessions
        self.timeout = timeout
        self.max_ops = max_ops
        self.offered = 0
        self.ok = 0
        self.failed = 0
        self.shed = 0
        self.in_flight = 0
        self._session_opts = {} if retry is None else {"retry": retry}
        self._pool: dict[int, Any] = {}
        self._session_rng = random.Random(seed)
        self._started = False
        self._start_time: float | None = None
        self._until: float | None = None
        self._last_arrival: float | None = None
        self._arrival_iter: Iterator[float] | None = None
        self._op_iter: Iterator[OpSpec] | None = None

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def start(self, until: float | None = None) -> None:
        """Schedule the first arrival (idempotent)."""
        if self._started:
            return
        self._started = True
        self._start_time = self.sim.now
        self._until = until
        self._arrival_iter = iter(self.arrivals)
        self._op_iter = iter(self.ops)
        self._schedule_next_arrival()

    def run(self, until: float | None = None) -> OpenLoopResult:
        """Start (if needed), run the simulation, return the result.

        With ``until`` set, the simulator runs ``timeout`` ms past it
        so ops in flight at the cutoff settle instead of being counted
        as abandoned.
        """
        self.start(until)
        if until is None:
            self.sim.run()
        else:
            self.sim.run(until + (self.timeout or 0.0))
        return self.result()

    def result(self) -> OpenLoopResult:
        start = self._start_time
        if start is None:
            duration = 0.0
        elif self._until is not None:
            duration = max(0.0, min(self.sim.now, self._until) - start)
        elif self._last_arrival is not None:
            duration = max(0.0, self._last_arrival - start)
        else:
            duration = 0.0
        return OpenLoopResult(
            history=self.recorder.history(),
            duration=duration,
            offered=self.offered,
            ok=self.ok,
            failed=self.failed,
            shed=self.shed,
            in_flight=self.in_flight,
            read_latency=self.read_latency,
            write_latency=self.write_latency,
            sessions_used=len(self._pool),
        )

    # ------------------------------------------------------------------
    # Arrival scheduling
    # ------------------------------------------------------------------
    def _schedule_next_arrival(self) -> None:
        if self.max_ops is not None and self.offered >= self.max_ops:
            return
        try:
            offset = next(self._arrival_iter)
        except StopIteration:
            return
        at = self._start_time + offset
        if self._until is not None and at > self._until:
            return
        self.sim.schedule(max(0.0, at - self.sim.now), self._arrive)

    def _arrive(self) -> None:
        try:
            spec = next(self._op_iter)
            while spec.op == "sleep":    # pacing is the arrival process's job
                spec = next(self._op_iter)
        except StopIteration:
            return
        self.offered += 1
        self._last_arrival = self.sim.now
        self._start(self._pick_session(), spec, *first_call(spec))
        self._schedule_next_arrival()

    def _pick_session(self) -> Any:
        index = self._session_rng.randrange(self.sessions)
        session = self._pool.get(index)
        if session is None:
            session = self.store.session(f"ol{index}", **self._session_opts)
            self._pool[index] = session
        return session

    # ------------------------------------------------------------------
    # Op execution (callback-chained; no generator frames)
    # ------------------------------------------------------------------
    def _start(self, session: Any, spec: OpSpec, kind: str,
               value: Any) -> None:
        op = self._begin_op(session, kind, spec.key, value, None,
                            self.timeout)
        self.in_flight += 1
        op.future.add_callback(lambda _f: self._settled(session, spec, op))

    def _settled(self, session: Any, spec: OpSpec, op: Any) -> None:
        self.in_flight -= 1
        self._finish_op(op)
        if not op.ok:
            self.failed += 1
            if isinstance(op.error, OverloadedError):
                self.shed += 1
        elif spec.op == "rmw" and op.kind == "read":
            # An rmw writes its spec's value back after the read.
            self._start(session, spec, "write", spec.value)
        else:
            self.ok += 1
