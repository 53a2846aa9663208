"""A calibration loop: how fast is the machine *right now*?

The box this benchmark runs on switches, for a second to a minute and
a half at a time, into a mode in which every Python program runs about
1.7x slower (wall time equals CPU time, so it is not descheduling; the
cause is outside the guest).  Two 15-second runs of the same code can
therefore differ by a third, which no statistic over one run's repeats
can remove.  What removes it is a reference measured at the same
moments: this loop, a frozen miniature of the program's instruction
mix — a heap-driven event loop, bound-method dispatch per message
class, slotted dataclass messages, dict stores, a seeded RNG — built
from the standard library only, so that no change under ``src/`` can
move it.  In the slow mode it slows by 1.77x where the workloads slow
by 1.5–1.7x.

``run.py`` times the loop after every repeat and reports the median
repeat scaled by ``NOMINAL_S`` / the median loop time of the same run:
host seconds on the undisturbed box.  Measured on the raw samples of
ten 15-second ``quorum_closed`` runs that crossed several slow phases,
as quartile spread (and full range) of the run-phase estimate:

    median repeat, unscaled              30.6 %  (47 %)
    fastest repeat, unscaled             16.5 %  (42 %)
    fastest repeat / fastest loop        11.4 %  (36 %)
    median of best-of-3 / best-of-6      13.2 %  (24 %)
    first quartile / first quartile       6.7 %  (18 %)
    median repeat / median loop           7.5 %  (20 %)

and over all six workloads the last two stayed under 9 %.  (Scaling
each repeat by its own neighbouring loop samples was also tried and is
worse than not scaling: one 30 ms sample is itself noisy.)
"""

from __future__ import annotations

import gc
import heapq
import random
from dataclasses import dataclass
from statistics import median
from time import perf_counter
from typing import Any

#: The loop's median time on this box when nothing disturbs it.
#: Reported times are scaled to a machine where the loop takes this.
NOMINAL_S = 0.0330

OPS = 9_500
CLIENTS = 8
SERVERS = 5
KEYS = 100


@dataclass(slots=True)
class Request:
    request_id: int
    key: str
    value: Any = None


@dataclass(slots=True)
class Reply:
    request_id: int
    value: Any


class _Loop:
    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.now = 0.0
        self.heap: list = []
        self.seq = 0
        self.done = 0

    def send(self, src: "_Node", dst: "_Node", message: Any) -> None:
        self.seq += 1
        heapq.heappush(self.heap, (
            self.now + 0.3 + self.rng.expovariate(1.0), self.seq,
            dst.deliver, (src, message),
        ))

    def run(self) -> None:
        heap, pop = self.heap, heapq.heappop
        while heap:
            self.now, _seq, fn, args = pop(heap)
            fn(*args)


class _Node:
    def __init__(self, loop: _Loop) -> None:
        self.loop = loop
        self.store: dict = {}
        self.handlers: dict = {}

    def deliver(self, src: "_Node", message: Any) -> None:
        handler = self.handlers.get(type(message))
        if handler is None:
            handler = self.handlers[type(message)] = getattr(
                self, f"handle_{type(message).__name__}")
        handler(src, message)

    def handle_Request(self, src: "_Node", message: Request) -> None:
        if message.value is None:
            value = self.store.get(message.key)
        else:
            self.store[message.key] = (self.loop.now, message.value)
            value = True
        self.loop.send(self, src, Reply(message.request_id, value))


class _Client(_Node):
    def __init__(self, loop: _Loop, servers: list, ops: int) -> None:
        super().__init__(loop)
        self.servers = servers
        self.ops = ops
        self.request_id = 0
        self.started = 0.0
        self.latencies: list[float] = []

    def issue(self) -> None:
        if self.ops == 0:
            return
        self.ops -= 1
        self.request_id += 1
        rng = self.loop.rng
        value = None if rng.random() < 0.5 else f"v{self.request_id}"
        self.started = self.loop.now
        self.loop.send(self, rng.choice(self.servers), Request(
            self.request_id, f"k{rng.randrange(KEYS)}", value))

    def handle_Reply(self, src: _Node, message: Reply) -> None:
        self.latencies.append(self.loop.now - self.started)
        self.loop.done += 1
        self.issue()


def loop_seconds() -> float:
    """Run the loop once; the host seconds it took.

    The collector is off while it runs: a collection's cost grows with
    the heap of the process, and the loop must read the machine, not
    how much the program under test has allocated.  (The loop's
    objects are freed by reference count.)"""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        loop = _Loop(1)
        servers = [_Node(loop) for _ in range(SERVERS)]
        clients = [_Client(loop, servers, OPS // CLIENTS)
                   for _ in range(CLIENTS)]
        for client in clients:
            client.issue()
        loop.run()
        seconds = perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
    if loop.done != OPS // CLIENTS * CLIENTS:
        raise RuntimeError("calibration loop lost operations")
    return seconds


def scaled_median(seconds: list[float], loop_s: list[float]) -> float:
    """The median of ``seconds`` in host seconds on the undisturbed
    box: scaled by the median of the loop times ``loop_s`` taken
    between those repeats.  Both medians see the same mix of machine
    modes, so their ratio does not."""
    return median(seconds) * NOMINAL_S / median(loop_s)
