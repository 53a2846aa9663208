"""Base class for protocol participants (replicas, coordinators, clients).

A :class:`Node` is a message-handler state machine: the network calls
:meth:`deliver`, which dispatches to ``handle_<MessageClassName>``
methods.  Timers are thin wrappers over the simulator that respect
crashes — a crashed node neither receives messages nor fires timers.
A *timer* (:meth:`Node.set_timer`, :meth:`Node.every`) is expected to
fire and is one simulator event; a *timeout* (:meth:`Node.set_deadline`)
is set per operation and almost never fires, so it costs no event.

Crash/recover models fail-stop with amnesia of *volatile* state only:
subclasses override :meth:`on_crash` / :meth:`on_recover` to decide
what survives (e.g. a Paxos acceptor persists its promises, a cache
does not).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Hashable

from ..errors import SimulationError
from .core import Simulator
from .events import Event
from .network import Network
from .trace import NODE_CRASH, NODE_RECOVER


class Deadline:
    """One pending timeout; the handle :meth:`Node.set_deadline` returns."""

    __slots__ = ("time", "fn", "args", "_lane")

    def __init__(self, time: float, fn: Callable[..., Any], args: tuple, lane: "_Lane") -> None:
        self.time = time
        self.fn = fn
        self.args = args
        self._lane = lane

    def cancel(self) -> None:
        """Prevent the callback from running and drop every reference to it.
        Idempotent; a no-op once it has fired or the node has crashed."""
        if self.fn is None:
            return
        self.fn = self.args = None
        lane = self._lane
        lane.live -= 1
        if not lane.live:
            lane.wake.set_daemon(True)


class _Lane:
    """A node's pending deadlines of one delay value.  A constant delay means
    they expire in the order they were set, so a FIFO and one wake-up event
    serve them all (Varghese & Lauck's scheme for constant timeouts)."""

    __slots__ = ("delay", "entries", "live", "wake")

    def __init__(self, delay: float) -> None:
        self.delay = delay
        self.entries: deque[Deadline] = deque()
        self.live = 0  # entries neither cancelled nor fired
        self.wake: Event | None = None  # foreground exactly while ``live`` > 0


class Node:
    """A network-attached participant in a simulated protocol.

    Subclasses implement message handling either by defining
    ``handle_<ClassName>(self, src, msg)`` methods (one per message
    dataclass) or by overriding :meth:`on_message` wholesale.
    """

    #: Offset of this node's physical clock from simulated true time
    #: (ms).  Injected by the chaos nemesis's ``clock_skew`` fault;
    #: anything deriving wall-clock-flavored timestamps (LWW
    #: arbitration) should read :meth:`local_time`, never ``sim.now``.
    clock_offset: float = 0.0

    def __init__(self, sim: Simulator, network: Network, node_id: Hashable) -> None:
        self.sim = sim
        self.network = network
        self.node_id = node_id
        self.crashed = False
        self._timers: list[Event] = []
        self._timer_prune_at = 64
        self._lanes: dict[float, _Lane] = {}
        self._handler_cache: dict[type, Callable[..., Any]] = {}
        network.register(self)

    def local_time(self) -> float:
        """The node's *physical* clock reading: true simulated time
        plus this node's skew.  Event scheduling stays on true time —
        skew affects what the node believes, not when it runs."""
        return self.sim.now + self.clock_offset

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, dst: Hashable, message: Any) -> None:
        """Unicast ``message`` to ``dst`` (silently dropped if crashed)."""
        if self.crashed:
            return
        self.network.send(self.node_id, dst, message)

    def send_many(self, dsts: list, message: Any) -> None:
        """Fan one ``message`` out to ``dsts``, in order (nothing if crashed)."""
        if self.crashed:
            return
        self.network.send_many(self.node_id, dsts, message)

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def deliver(self, src: Hashable, message: Any) -> None:
        """Entry point used by the network.  Do not override; override
        :meth:`on_message` instead."""
        if self.crashed:
            return
        handler = self._handler_cache.get(type(message))
        if handler is None:
            self.on_message(src, message)
        else:
            handler(src, message)

    def on_message(self, src: Hashable, message: Any) -> None:
        """Dispatch to ``handle_<type(message).__name__>``.

        The bound handler is cached per message class — name
        formatting + ``getattr`` once per type, then one dict hit in
        :meth:`deliver` — unless a subclass overrides this hook, which
        must then see every message.
        """
        cls = type(message)
        handler = getattr(self, f"handle_{cls.__name__}", None)
        if handler is None:
            raise SimulationError(
                f"{type(self).__name__} {self.node_id!r} has no handler "
                f"for {cls.__name__}"
            )
        if type(self).on_message is Node.on_message:
            self._handler_cache[cls] = handler
        handler(src, message)

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def set_timer(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        daemon: bool = False,
    ) -> Event:
        """Run ``fn`` after ``delay`` ms unless this node crashes first.

        ``daemon=True`` makes the timer a background event that does
        not keep ``sim.run()`` alive (see
        :meth:`Simulator.schedule_daemon`).
        """
        schedule = self.sim.schedule_daemon if daemon else self.sim.schedule
        event = schedule(delay, self._guard, fn, args)
        self._timers.append(event)
        if len(self._timers) > self._timer_prune_at:
            # Prune fired timers too, not just cancelled ones — on a
            # busy node the list is mostly already-executed events, and
            # rescanning them on every set_timer made this prune
            # quadratic over a long run.  Doubling the next-prune
            # threshold keeps the rescan amortized O(1) per timer even
            # when a node legitimately holds many live timers.
            self._timers = [
                t for t in self._timers if not (t.executed or t.cancelled)
            ]
            self._timer_prune_at = max(64, 2 * len(self._timers))
        return event

    def _guard(self, fn: Callable[..., Any], args: tuple) -> None:
        if not self.crashed:
            fn(*args)

    def set_deadline(self, delay: float, fn: Callable[..., Any], *args: Any) -> Deadline:
        """Run ``fn`` after ``delay`` ms unless cancelled or this node
        crashes first — for the timeout set on every operation and
        cancelled by nearly every one.

        Deadlines of one ``delay`` share a FIFO lane and one wake-up
        event, so setting one is an append and cancelling one a flag: no
        event, no heap push.  A live deadline keeps ``run()`` alive and
        fires at exactly ``now + delay``, as a timer would (deadlines of
        *different* lanes due at one instant fire in the order the lanes
        woke, not the order set); a cancelled one holds no ``run()`` open.
        """
        lane = self._lanes.get(delay)
        if lane is None:
            lane = _Lane(delay)
            lane.wake = self.sim.schedule(delay, self._wake, lane)
            self._lanes[delay] = lane
        entry = Deadline(self.sim.now + delay, fn, args, lane)
        lane.entries.append(entry)
        lane.live += 1
        if lane.live == 1:
            lane.wake.set_daemon(False)
        return entry

    def _wake(self, lane: _Lane) -> None:
        """A lane's wake-up: drop cancelled heads, fire the due ones in
        the order they were set, sleep until the next live one — or
        forget a drained lane, so one-off delays cannot accumulate."""
        entries, now = lane.entries, self.sim.now
        while entries:
            entry = entries[0]
            fn = entry.fn
            if fn is not None:
                if entry.time > now:
                    lane.wake = self.sim.schedule_at(entry.time, self._wake, lane)
                    return
                args = entry.args
                entry.fn = entry.args = None
                lane.live -= 1
                # ``lane.wake`` is still this (executed) event: a callback
                # setting a deadline on this lane appends, arms nothing.
                self._guard(fn, args)
            entries.popleft()
        if self._lanes.get(lane.delay) is lane:
            del self._lanes[lane.delay]

    def every(self, interval: float, fn: Callable[..., Any], *args: Any,
              jitter: float = 0.0) -> None:
        """Run ``fn`` every ``interval`` ms (optionally jittered by up
        to ``jitter`` fraction) until the node crashes.  Periodic timers
        are daemons: they fire while other work keeps the simulation
        alive (or while ``run(until=...)`` holds it open) but never
        prevent ``run()`` from terminating."""
        if interval <= 0:
            raise SimulationError("interval must be positive")

        def tick() -> None:
            if self.crashed:
                return
            fn(*args)
            delay = interval
            if jitter > 0:
                delay *= self.sim.rng.uniform(1.0, 1.0 + jitter)
            self.set_timer(delay, tick, daemon=True)

        first = interval
        if jitter > 0:
            first *= self.sim.rng.uniform(0.0, 1.0)
        self.set_timer(first, tick, daemon=True)

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Fail-stop: drop pending timers and all future messages."""
        if self.crashed:
            return
        self.crashed = True
        if self.sim.trace.enabled:
            self.sim.trace.record(self.sim.now, NODE_CRASH,
                                  node=self.node_id)
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()
        for lane in self._lanes.values():
            lane.wake.cancel()
            for entry in lane.entries:
                entry.fn = entry.args = None
        self._lanes.clear()
        self.on_crash()

    def recover(self) -> None:
        """Restart the node.  Volatile-state policy is the subclass's."""
        if not self.crashed:
            return
        self.crashed = False
        if self.sim.trace.enabled:
            self.sim.trace.record(self.sim.now, NODE_RECOVER,
                                  node=self.node_id)
        self.on_recover()

    def on_crash(self) -> None:
        """Hook: discard volatile state.  Default keeps everything."""

    def on_recover(self) -> None:
        """Hook: re-arm timers, trigger recovery protocol."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "crashed" if self.crashed else "up"
        return f"<{type(self).__name__} {self.node_id!r} {state}>"
