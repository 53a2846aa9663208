"""The deterministic discrete-event simulator.

A :class:`Simulator` owns a virtual clock, an event queue and a seeded
random number generator.  Everything in this package — network delays,
replica protocols, client workloads — runs as callbacks on one
simulator instance, so a whole distributed execution is a single
deterministic function of the seed.

Time is a ``float`` in **milliseconds**; the unit convention matters
because the geo topologies in :mod:`repro.sim.topology` are expressed
in real-world WAN round-trip terms.
"""

from __future__ import annotations

import heapq
import random
from typing import Any, Callable

from ..analysis.registry import MetricsRegistry
from ..errors import SimulationError
from .events import Event, EventQueue
from .trace import NULL_TRACER


class Simulator:
    """A single-threaded discrete-event simulator.

    Parameters
    ----------
    seed:
        Seed for the simulator's RNG.  Two simulators built with the
        same seed and driven by the same code produce byte-identical
        traces.
    tracer:
        Optional :class:`repro.sim.trace.Tracer`.  Defaults to the
        shared no-op tracer, so untraced runs pay only an ``enabled``
        check at each hook point.

    Each simulator owns a :class:`repro.analysis.registry.MetricsRegistry`
    (``metrics``); the network and the replication protocols publish
    their counters there.

    Examples
    --------
    >>> sim = Simulator(seed=1)
    >>> out = []
    >>> _ = sim.schedule(5.0, out.append, "b")
    >>> _ = sim.schedule(1.0, out.append, "a")
    >>> sim.run()
    >>> out
    ['a', 'b']
    >>> sim.now
    5.0
    """

    def __init__(
        self,
        seed: int = 0,
        tracer=None,
    ) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.now: float = 0.0
        self.trace = tracer if tracer is not None else NULL_TRACER
        self.metrics = MetricsRegistry()
        self._queue = EventQueue()
        self._push = self._queue.push  # bound once: scheduling is hot
        self._push_fn = self._queue.push_fn  # handle-free fast path
        self._running = False
        self._stopped = False
        self.events_processed = 0

    def annotate(self, category: str, **data: Any) -> None:
        """Record a protocol-defined trace annotation at the current
        simulated time (no-op when tracing is disabled)."""
        if self.trace.enabled:
            self.trace.annotate(self.now, category, **data)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Run ``fn(*args)`` after ``delay`` simulated milliseconds.

        Returns a cancellable :class:`Event` handle.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self._push(self.now + delay, fn, args)

    def schedule_daemon(
        self, delay: float, fn: Callable[..., Any], *args: Any
    ) -> Event:
        """Like :meth:`schedule`, but the event does not keep
        :meth:`run` alive — use for periodic protocol timers (gossip,
        hint pushes) that would otherwise make the simulation run
        forever."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self._push(self.now + delay, fn, args, daemon=True)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Run ``fn(*args)`` at absolute simulated time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self.now}"
            )
        return self._push(time, fn, args)

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` at the current time, after pending events
        already scheduled for this instant.

        This is the fast path the future/process machinery leans on:
        no delay validation, no clock arithmetic, no :class:`Event` —
        a handle-free entry straight onto the queue at ``now``.
        Callers needing a cancellable handle at the current instant
        use ``schedule(0.0, ...)``.
        """
        self._push_fn(self.now, fn, args)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Process events until the queue drains.

        Parameters
        ----------
        until:
            Stop once the clock would pass this time.  When the queue
            was drained up to ``until``, the clock is advanced to
            ``until`` on return, so periodic timers can be resumed by a
            later ``run`` call.  If the run broke early (``max_events``
            or :meth:`stop`) with live events still due before
            ``until``, the clock stays at the last executed event so a
            later ``run``/:meth:`step` resumes without time-travel.
        max_events:
            Safety valve — stop after this many events.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        self._running = True
        self._stopped = False
        processed = 0
        limit = max_events if max_events is not None else float("inf")
        # Hot loop: hoist every per-iteration attribute lookup and
        # inline peek/pop straight against the heap (EventQueue._compact
        # rebuilds the heap list in place, so the alias stays valid
        # across callbacks).  The tracer's ``enabled`` flag is a class
        # attribute, so it cannot change mid-run.
        #
        # Dispatch is *batched*: the outer loop picks the next
        # timestamp, the inner loop drains every entry at that instant
        # (including ones pushed mid-batch by the callbacks — call_soon
        # cascades) without re-evaluating the outer-loop conditions.
        # Each entry stays in the heap until its own turn, so a
        # callback cancelling a later same-tick event still skips it —
        # the exact sequential-pop semantics, minus the per-event
        # bookkeeping.  Handle-free ``(time, seq, fn, args)`` entries
        # take the no-attribute-loads branch.
        queue = self._queue
        heap = queue._heap
        pop_entry = heapq.heappop
        trace = self.trace
        tracing = trace.enabled
        trace_event = trace.event
        no_deadline = until is None
        done = False
        try:
            while queue._live and not done:
                if no_deadline and queue._foreground == 0:
                    break  # only daemon timers remain: the run is done
                if not heap:
                    break
                tick = heap[0][0]
                if not no_deadline and tick > until:
                    break
                if tick < self.now:  # pragma: no cover - defensive
                    raise SimulationError("event queue yielded an event in the past")
                self.now = tick
                while True:
                    entry = pop_entry(heap)
                    if len(entry) == 4:
                        fn = entry[2]
                        queue._live -= 1
                        queue._foreground -= 1
                        if tracing:
                            trace_event(tick, fn, entry[1], False)
                        fn(*entry[3])
                        processed += 1
                        self.events_processed += 1
                    else:
                        event = entry[2]
                        if event.cancelled:
                            queue._dead -= 1
                            if heap and heap[0][0] == tick:
                                continue
                            break
                        # Same accounting as EventQueue.pop(): mark
                        # executed *before* dispatch so a self-cancel
                        # is a no-op.
                        event.executed = True
                        queue._live -= 1
                        if not event.daemon:
                            queue._foreground -= 1
                        if tracing:
                            trace_event(tick, event.fn, event.seq, event.daemon)
                        event.fn(*event.args)
                        processed += 1
                        self.events_processed += 1
                    if self._stopped or processed >= limit:
                        done = True
                        break
                    if no_deadline and queue._foreground == 0:
                        break
                    if not heap or heap[0][0] != tick:
                        break
            if until is not None and not self._stopped and self.now < until:
                # Fast-forward to the deadline only if nothing is still
                # due before it — a max_events break leaves live events
                # behind, and jumping the clock past them would corrupt
                # the next run()/step() (events "in the past").
                next_time = self._queue.peek_time()
                if next_time is None or next_time > until:
                    self.now = until
        finally:
            self._running = False

    def step(self, daemons: bool = True) -> bool:
        """Process exactly one event.  Returns ``False`` when idle.

        Parameters
        ----------
        daemons:
            When ``False``, a queue holding only daemon timers counts
            as idle — the same termination rule a deadline-less
            :meth:`run` applies.  The default ``True`` steps through
            daemons too (useful when driving the clock by hand).

        Like :meth:`run`, stepping is not re-entrant: the simulator is
        marked running while the callback executes, so a callback that
        calls ``run()`` (or ``step()``) fails loudly instead of
        silently interleaving two dispatch loops.
        """
        if self._running:
            raise SimulationError(
                "simulator is already running (re-entrant step())"
            )
        if not daemons and self._queue.foreground_live == 0:
            return False
        next_time = self._queue.peek_time()
        if next_time is None:
            return False
        if next_time < self.now:  # same guard as run()
            raise SimulationError("event queue yielded an event in the past")
        event = self._queue.pop()
        self.now = event.time
        if self.trace.enabled:
            self.trace.event(event.time, event.fn, event.seq, event.daemon)
        self._running = True
        try:
            event.fn(*event.args)
        finally:
            self._running = False
        self.events_processed += 1
        return True

    def stop(self) -> None:
        """Stop the current :meth:`run` after the active event returns."""
        self._stopped = True

    @property
    def running(self) -> bool:
        """Whether :meth:`run` or :meth:`step` is executing events (a
        nested ``run()`` would raise)."""
        return self._running

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return len(self._queue)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Simulator t={self.now:.3f}ms seed={self.seed} "
            f"pending={self.pending_events}>"
        )
