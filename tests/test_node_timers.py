"""Timers and timeouts on a :class:`Node`: the deadline lanes against
the plain timers they replace.

``set_timer`` is one simulator event per call; ``set_deadline`` keeps
the timeouts of one delay value in a FIFO behind a single wake-up.  The
two must be indistinguishable to a protocol — same callbacks at the
same instants, same clock after every ``run``, same moment a
deadline-less ``run()`` gives up — which the property test checks by
driving one random script through both.  The units pin the lane's own
edges, and a counted (not timed) budget pins what the lanes are for: a
healthy quorum run executes no timeout callback at all.
"""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.perf.scenarios import _QUORUM
from repro.replication.common import ClientNode
from repro.replication.quorum import DynamoNode
from repro.sim import ExponentialLatency, Network, Node, Simulator, Tracer
from repro.sim.trace import filter_events
from repro.workload import YCSBWorkload, run_workload


def make_node(tracer=None):
    sim = Simulator(tracer=tracer)
    return sim, Node(sim, Network(sim), "n")


# ---------------------------------------------------------------------------
# (a) Lanes == timers, on random scripts
# ---------------------------------------------------------------------------

#: Constant delays share a lane; the continuous draws each get their own.
POOL = (0.0, 1.0, 2.5, 5.0, 25.0)

STEP = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(POOL)),
    st.tuples(st.just("set"), st.floats(min_value=0.01, max_value=30.0)),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=63)),
    st.tuples(st.just("crash"), st.none()),
    st.tuples(st.just("recover"), st.none()),
    st.tuples(st.just("until"), st.floats(min_value=0.0, max_value=12.0)),
    st.tuples(st.just("run"), st.none()),
)


def play(script, api):
    """Drive ``script`` through one node, setting with ``api``; returns
    the firing log and what every ``run`` left behind."""
    sim, node = make_node()
    arm = getattr(node, api)
    fired, clocks, handles = [], [], []
    for index, (step, arg) in enumerate(script):
        if step == "set":
            handles.append(arm(arg, lambda tag: fired.append((sim.now, tag)), index))
        elif step == "cancel" and handles:
            handles[arg % len(handles)].cancel()
        elif step == "crash":
            node.crash()
        elif step == "recover":
            node.recover()
        elif step == "until":
            sim.run(until=sim.now + arg)
            clocks.append(sim.now)
        elif step == "run":
            # The valve is never reached: ending by it, not by running
            # out of foreground work, would show as a foreground count.
            sim.run(max_events=10_000)
            clocks.append((sim.now, sim._queue.foreground_live))
    return fired, clocks


@settings(max_examples=300, deadline=None)
@given(st.lists(STEP, max_size=40))
def test_deadlines_fire_as_timers_would(script):
    """Same ``(time, tag)`` log, same ``sim.now`` after every ``run``,
    and a deadline-less ``run()`` ends at the same instant with nothing
    in the foreground — cancelled deadlines hold no run open, live ones
    do.  Timers due at one instant fire in the order they were set (the
    tag); lanes keep that order within a lane, while *across* lanes it
    is the order the wake-ups were armed — so the lane log is compared
    sorted within each instant, which is the identity on the timer log.
    """
    lane_fired, lane_clocks = play(script, "set_deadline")
    timer_fired, timer_clocks = play(script, "set_timer")
    assert timer_fired == sorted(timer_fired)
    assert sorted(lane_fired) == timer_fired
    assert [time for time, _tag in lane_fired] == [t for t, _ in timer_fired]
    assert lane_clocks == timer_clocks


# ---------------------------------------------------------------------------
# (b) The lane's own edges
# ---------------------------------------------------------------------------


def test_one_lane_fires_fifo_at_the_same_instant():
    sim, node = make_node()
    fired = []
    for tag in range(5):
        node.set_deadline(7.0, fired.append, tag)
    sim.run(until=3.0)
    node.set_deadline(7.0, fired.append, "later")
    sim.run()
    assert fired == [0, 1, 2, 3, 4, "later"]
    assert sim.now == 10.0


def test_callback_may_set_a_deadline_on_its_own_lane():
    """The lane being drained must not be armed a second time: each
    entry fires once, at its own instant, through one wake-up each."""
    tracer = Tracer()
    sim, node = make_node(tracer)
    fired = []

    def again(left):
        fired.append(sim.now)
        if left:
            node.set_deadline(4.0, again, left - 1)

    node.set_deadline(4.0, again, 3)
    sim.run()
    assert fired == [4.0, 8.0, 12.0, 16.0]
    assert len(filter_events(tracer.events, kind="event_executed")) == 4
    assert node._lanes == {} and sim.pending_events == 0


def test_cancel_is_idempotent_and_harmless_after_firing_or_crash():
    sim, node = make_node()
    fired = []
    first = node.set_deadline(2.0, fired.append, "first")
    second = node.set_deadline(2.0, fired.append, "second")
    first.cancel()
    first.cancel()
    sim.run()
    assert fired == ["second"]
    second.cancel()  # after firing
    third = node.set_deadline(2.0, fired.append, "third")
    node.crash()
    third.cancel()  # after crash() emptied the lane
    node.recover()
    fourth = node.set_deadline(2.0, fired.append, "fourth")
    third.cancel()  # a stale handle cannot touch the new lane's count
    sim.run()
    assert fired == ["second", "fourth"]
    fourth.cancel()
    assert node._lanes == {}


def test_crash_empties_the_lanes():
    sim, node = make_node()
    fired = []
    node.set_deadline(5.0, fired.append, "a")
    node.set_deadline(9.0, fired.append, "b")
    node.crash()
    assert node._lanes == {}
    node.recover()
    sim.run()
    assert fired == [] and sim.now == 0.0


def test_live_deadline_keeps_run_alive_and_cancelled_one_does_not():
    sim, node = make_node()
    fired = []
    node.set_deadline(40.0, fired.append, "live")
    sim.run()
    assert fired == ["live"] and sim.now == 40.0

    node.set_deadline(40.0, fired.append, "dead").cancel()
    sim.run()
    assert fired == ["live"] and sim.now == 40.0  # the clock did not move
    # The stale wake-up is a daemon: it fires under a deadline, finds
    # nothing, and forgets the lane.
    sim.run(until=100.0)
    assert fired == ["live"] and node._lanes == {}


def test_closed_loop_traffic_costs_one_wake_up_per_period_not_per_op():
    """A client with one request outstanding takes the lane's live
    count through zero on every op; the wake-up flips between
    foreground and daemon instead of being cancelled and re-armed."""
    tracer = Tracer()
    sim, node = make_node(tracer)
    for _ in range(1_000):
        handle = node.set_deadline(400.0, lambda: None)
        sim.run(until=sim.now + 1.0)
        handle.cancel()
    assert len(filter_events(tracer.events, kind="event_executed")) == 2   # t=400, t=799
    assert len(node._lanes[400.0].entries) < 410


def test_drained_lanes_are_forgotten():
    """Odd delays — ``min(request_timeout, remaining)`` near an RPC
    deadline — each make a lane; none outlives its last entry."""
    sim, node = make_node()
    fired = []
    for step in range(1_000):
        handle = node.set_deadline(1.0 + step / 997.0, fired.append, step)
        if step % 2:
            handle.cancel()
    assert len(node._lanes) == 1_000
    sim.run(until=10.0)
    assert len(fired) == 500
    assert len(node._lanes) == 0


def test_negative_delay_raises_like_schedule():
    sim, node = make_node()
    with pytest.raises(SimulationError, match="in the past"):
        node.set_deadline(-1.0, lambda: None)
    assert node._lanes == {}


def test_cancelled_deadline_drops_its_callback_and_args_at_once():
    class Payload:
        def method(self, _other):
            pass

    sim, node = make_node()
    target, arg = Payload(), Payload()
    refs = weakref.ref(target), weakref.ref(arg)
    handle = node.set_deadline(5.0, target.method, arg)
    node.set_deadline(5.0, lambda: None)  # keeps the lane (and the entry) alive
    del target, arg
    gc.collect()
    assert all(ref() is not None for ref in refs)
    handle.cancel()
    gc.collect()
    assert all(ref() is None for ref in refs)
    assert handle in node._lanes[5.0].entries  # still queued, holding nothing


@pytest.mark.xfail(strict=True, reason=(
    "Node.every stops at crash() and nothing re-arms it at recover(): a "
    "recovered DynamoNode never pushes a hint again, a Bayou or "
    "anti-entropy node never gossips again.  Re-arming draws jitter from "
    "the RNG on every crash scenario, so it is ROADMAP item 5's fix."
))
def test_periodic_timers_resume_after_recover():
    sim, node = make_node()
    ticks = []
    node.every(10.0, lambda: ticks.append(sim.now))
    sim.run(until=35.0)
    node.crash()
    node.recover()
    sim.run(until=75.0)
    assert ticks[:3] == [10.0, 20.0, 30.0] and len(ticks) > 3


# ---------------------------------------------------------------------------
# (c) Dead-work budget on a healthy quorum run (counted, not timed)
# ---------------------------------------------------------------------------


def test_healthy_quorum_run_executes_no_timeout(monkeypatch):
    """Quick ``quorum_ycsb`` (400 ops, 8 clients, no fault): every op
    arms a client timeout, an op deadline and — for writes — a sloppy
    fallback; every op is decided first, so none of the three callbacks
    runs, the lanes wake once per period rather than per op, and
    ``run()`` returns when the stragglers' acks are in, not
    ``op_deadline`` after the last op."""
    calls = []

    def counting(cls, name):
        inner = getattr(cls, name)

        def wrapper(self, *args):
            calls.append(name)
            return inner(self, *args)
        monkeypatch.setattr(cls, name, wrapper)

    counting(ClientNode, "_timeout")
    counting(DynamoNode, "_expire")
    counting(DynamoNode, "_write_fallback")

    ops = 400
    tracer = Tracer()
    sim = Simulator(seed=42, tracer=tracer)
    store = _QUORUM(sim, Network(sim, latency=ExponentialLatency(base=0.3, mean=1.0)))
    result = run_workload(store, YCSBWorkload("A", records=500, seed=43).take(ops),
                          clients=8, timeout=60_000.0)
    assert result.ops_ok == ops
    assert calls == []
    executed = [event.data["fn"]
                for event in filter_events(tracer.events, kind="event_executed")]
    assert not [fn for fn in executed
                if any(name in fn for name in ("_timeout", "_expire", "_write_fallback"))]
    # 1,000 timeouts were armed (2.5 per op); what is left of them is one
    # wake-up per lane per period, however many ops the period held.
    periods = sum(sim.now / delay + 1
                  for delay in (store.replica_timeout, store.op_deadline))
    wake_ups = executed.count("Node._wake")
    assert 0 < wake_ups <= len(store.replicas) * periods and wake_ups < ops / 8
    # The run started at 0, so ``duration`` is when the last op completed.
    assert store.replica_timeout < store.op_deadline
    assert 0.0 <= sim.now - result.duration <= store.replica_timeout
