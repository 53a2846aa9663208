"""EventQueue internals: lazy cancellation, compaction, accounting.

The tuple-heap rewrite made cancellation lazy (flag + skip) with a
compaction pass once cancelled entries outnumber live ones.  These
tests pin down the accounting invariants that rewrite must preserve:
``len(queue)`` counts live events only, ``heap_size`` stays within 2x
the live count, pop/peek order is deterministic, and an event popped
for dispatch can no longer be cancelled (no double-decrement).
"""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator
from repro.sim.events import EventQueue


def test_mass_cancellation_compacts_heap():
    q = EventQueue()
    events = [q.push(float(i), lambda: None) for i in range(1000)]
    assert len(q) == 1000
    assert q.heap_size == 1000
    # Cancel the vast majority; compaction must keep the physical heap
    # within 2x the live count instead of dragging ~900 dead entries
    # around for the rest of the run.
    for event in events[100:]:
        event.cancel()
    assert len(q) == 100
    assert q.heap_size <= 2 * len(q)


def test_pop_order_deterministic_after_mass_cancellation():
    q = EventQueue()
    tags = []
    events = {}
    for i in range(200):
        events[i] = q.push(float(i % 10), tags.append, (i,))
    # Cancel every odd-numbered event, forcing at least one compaction.
    for i in range(1, 200, 2):
        events[i].cancel()
    order = []
    while q:
        event = q.pop()
        order.append(event.args[0])
    # Survivors come out in (time, seq) order: grouped by time bucket,
    # FIFO within a bucket.
    expected = sorted(
        (i for i in range(0, 200, 2)), key=lambda i: (i % 10, i)
    )
    assert order == expected


def test_peek_time_skips_cancelled_head():
    q = EventQueue()
    first = q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    assert q.peek_time() == 1.0
    first.cancel()
    assert q.peek_time() == 2.0
    assert len(q) == 1


def test_cancel_after_pop_is_a_noop():
    """pop() marks the event executed *before* dispatch can observe it,
    so cancelling a popped-but-not-yet-run event must not decrement the
    live/foreground counters a second time."""
    q = EventQueue()
    event = q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    popped = q.pop()
    assert popped is event
    assert popped.executed
    assert len(q) == 1
    popped.cancel()  # too late: the event is already being dispatched
    assert not popped.cancelled
    assert len(q) == 1
    assert q.foreground_live == 1
    assert q.pop().time == 2.0


def test_self_cancel_during_dispatch_keeps_accounting():
    """A callback cancelling the very event being dispatched (directly
    or via a crash-time timer sweep) must leave the queue consistent."""
    sim = Simulator()
    handle = {}
    fired = []

    def cb():
        handle["event"].cancel()  # no-op: this event is mid-dispatch
        fired.append(sim.now)

    handle["event"] = sim.schedule(1.0, cb)
    sim.schedule(2.0, fired.append, 2.0)
    sim.run()
    assert fired == [1.0, 2.0]
    assert sim.pending_events == 0


def test_compaction_during_run_via_mass_cancel():
    """Compaction triggered from inside a callback (Simulator.run holds
    a reference to the heap list) must not derail the ongoing run."""
    sim = Simulator()
    out = []
    timers = [sim.schedule(10.0 + i, out.append, i) for i in range(100)]

    def sweep():
        for timer in timers:
            timer.cancel()
        out.append("swept")

    sim.schedule(1.0, sweep)
    sim.schedule(500.0, out.append, "end")
    sim.run()
    assert out == ["swept", "end"]
    assert sim.pending_events == 0


def test_pop_empty_queue_raises():
    q = EventQueue()
    with pytest.raises(SimulationError):
        q.pop()


def test_daemon_accounting_on_cancel():
    q = EventQueue()
    daemon = q.push(1.0, lambda: None, daemon=True)
    q.push(2.0, lambda: None)
    assert len(q) == 2
    assert q.foreground_live == 1
    daemon.cancel()
    assert len(q) == 1
    assert q.foreground_live == 1
