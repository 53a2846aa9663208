"""Event queue primitives for the discrete-event simulator.

The queue is a binary heap ordered by ``(time, sequence)``.  The
monotonically increasing sequence number makes the ordering of
simultaneous events deterministic (FIFO in scheduling order), which is
what makes whole simulations reproducible from a seed.  Storing plain
tuples — not :class:`Event` objects — keeps every ``heapq`` comparison
in C; the interpreter never re-enters ``Event.__lt__`` on the hot path.

Two entry shapes share the heap:

``(time, seq, Event)``
    The classic cancellable entry, returned as a handle by
    :meth:`push`.
``(time, seq, fn, args)``
    A *handle-free* entry from :meth:`push_fn` — no :class:`Event` is
    ever allocated.  Used for fire-and-forget work that is never
    cancelled and never daemonized: ``Simulator.call_soon`` and network
    deliveries (pushed in place by ``Network.send`` / ``send_many``).
    Mixing the two shapes is safe because sequence numbers are unique: tuple
    comparison always resolves at element 1 and never reaches the
    payload.

Cancellation is lazy: a cancelled event is flagged in O(1) and skipped
when it surfaces from the heap.  When cancelled entries outnumber live
ones (a hedged-RPC storm cancelling its loser timers, say), the heap is
compacted in one pass so dead timers cannot dominate heap depth for the
rest of a long run.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from ..errors import SimulationError


class Event:
    """A scheduled callback.  Returned by :meth:`Simulator.schedule`.

    Events are one-shot and cancellable.  Cancellation is O(1): the
    event is flagged and skipped when it surfaces from the heap.
    """

    __slots__ = (
        "time", "seq", "fn", "args", "cancelled", "daemon", "executed",
        "_queue",
    )

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., Any],
        args: tuple,
        queue: "EventQueue | None" = None,
        daemon: bool = False,
    ):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.daemon = daemon
        self.executed = False
        self._queue = queue

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent; cancelling an
        event that already fired (or is currently firing — the queue
        marks ``executed`` at pop, before the callback runs) is a
        harmless no-op, so queue accounting can never double-decrement.
        """
        if not self.cancelled and not self.executed:
            self.cancelled = True
            queue = self._queue
            if queue is not None:
                queue._live -= 1
                if not self.daemon:
                    queue._foreground -= 1
                queue._dead += 1
                if queue._dead > queue._live:
                    queue._compact()

    def set_daemon(self, daemon: bool) -> None:
        """Flip a pending event between foreground and daemon: one
        long-lived wake-up (a node's deadline lane) keeps ``run()`` alive
        exactly while something waits on it.  Like :meth:`cancel`, a
        no-op on an event that was cancelled or has fired."""
        if self.daemon is not daemon and not (self.cancelled or self.executed):
            self.daemon = daemon
            if self._queue is not None:
                self._queue._foreground += -1 if daemon else 1

    def __lt__(self, other: "Event") -> bool:
        # Not used by the heap (tuples compare first); kept so sorting
        # Event handles directly stays meaningful.
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time:.6f} #{self.seq} {name} {state}>"


class EventQueue:
    """Deterministic min-heap of ``(time, seq, ...)`` entries."""

    def __init__(self) -> None:
        # Entries are (time, seq, Event) or (time, seq, fn, args).
        self._heap: list[tuple] = []
        self._seq = 0
        self._live = 0
        self._foreground = 0
        self._dead = 0  # cancelled entries still parked in the heap

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    @property
    def foreground_live(self) -> int:
        """Live events that keep a ``run()`` without deadline going.
        Daemon events (periodic protocol timers) don't count — a
        simulation is 'done' when only daemons remain."""
        return self._foreground

    @property
    def heap_size(self) -> int:
        """Physical heap length, live + not-yet-collected cancelled
        entries.  Compaction keeps this within 2x the live count."""
        return len(self._heap)

    def push(
        self,
        time: float,
        fn: Callable[..., Any],
        args: tuple = (),
        daemon: bool = False,
    ) -> Event:
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, fn, args, self, daemon)
        heapq.heappush(self._heap, (time, seq, event))
        self._live += 1
        if not daemon:
            self._foreground += 1
        return event

    def push_fn(
        self,
        time: float,
        fn: Callable[..., Any],
        args: tuple = (),
    ) -> None:
        """Schedule ``fn(*args)`` with no :class:`Event` handle.

        The entry cannot be cancelled and always counts as foreground.
        The network's two enqueue sites repeat these five lines rather
        than pay this frame per message (AST-audited: nothing else).
        """
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, fn, args))
        self._live += 1
        self._foreground += 1

    def pop(self) -> Event:
        """Pop the earliest non-cancelled event.

        The popped event is marked ``executed`` *before* it is returned
        (so before its callback can run): a callback cancelling the
        very event being dispatched must see a no-op, not a second
        live-count decrement.  Handle-free entries are wrapped in a
        fresh (already-executed) :class:`Event` so callers see one
        uniform shape.

        Raises :class:`SimulationError` if the queue is empty.
        """
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            if len(entry) == 4:
                time, seq, fn, args = entry
                self._live -= 1
                self._foreground -= 1
                event = Event(time, seq, fn, args, self, False)
                event.executed = True
                return event
            event = entry[2]
            if event.cancelled:
                self._dead -= 1
                continue
            event.executed = True
            self._live -= 1
            if not event.daemon:
                self._foreground -= 1
            return event
        raise SimulationError("pop from empty event queue")

    def peek_time(self) -> float | None:
        """Time of the next live event, or ``None`` if the queue is empty."""
        heap = self._heap
        while heap and len(heap[0]) == 3 and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._dead -= 1
        if not heap:
            return None
        return heap[0][0]

    def _compact(self) -> None:
        """Drop every cancelled entry and re-heapify (O(live)).

        Triggered from :meth:`Event.cancel` once cancelled entries
        outnumber live ones — mass cancellation (hedged-RPC losers,
        crash-time timer sweeps) would otherwise leave the heap mostly
        dead weight for the remainder of the run.

        Rebuilds **in place** (slice assignment): ``Simulator.run``
        holds a direct reference to the heap list across callbacks, and
        a callback may cancel events and trigger compaction mid-run.
        """
        self._heap[:] = [
            entry for entry in self._heap
            if len(entry) == 4 or not entry[2].cancelled
        ]
        heapq.heapify(self._heap)
        self._dead = 0
