"""Unit tests for futures and generator processes."""

import pytest

from repro.errors import SimulationError
from repro.sim import Future, Simulator, all_of, spawn


def test_future_resolve_and_callback_order():
    sim = Simulator()
    future = Future(sim)
    seen = []
    future.add_callback(lambda f: seen.append(("first", f.value)))
    future.add_callback(lambda f: seen.append(("second", f.value)))
    future.resolve(41)
    sim.run()
    assert seen == [("first", 41), ("second", 41)]


def test_callback_added_after_resolution_still_fires():
    sim = Simulator()
    future = Future(sim)
    future.resolve("v")
    seen = []
    future.add_callback(lambda f: seen.append(f.value))
    sim.run()
    assert seen == ["v"]


def test_double_resolve_rejected_but_try_resolve_tolerated():
    sim = Simulator()
    future = Future(sim)
    assert future.try_resolve(1) is True
    assert future.try_resolve(2) is False
    with pytest.raises(SimulationError):
        future.resolve(3)
    assert future.value == 1


def test_template_label_is_formatted_on_read():
    sim = Simulator()
    future = Future(sim, ("req#{}->{}", 7, "dyn0"))
    assert future.label == "req#7->dyn0"
    assert repr(future) == "<Future 'req#7->dyn0' pending>"
    assert Future(sim, ("d{}({!r})", "write", "k")).label == "dwrite('k')"
    assert Future(sim, "plain").label == "plain" and Future(sim).label == ""


def test_result_reraises_failure():
    sim = Simulator()
    future = Future(sim)
    future.fail(ValueError("boom"))
    with pytest.raises(ValueError, match="boom"):
        future.result()


def test_result_before_done_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Future(sim).result()


def test_process_sleeps_for_yielded_floats():
    sim = Simulator()
    marks = []

    def proc():
        marks.append(sim.now)
        yield 10.0
        marks.append(sim.now)
        yield 5
        marks.append(sim.now)

    spawn(sim, proc())
    sim.run()
    assert marks == [0.0, 10.0, 15.0]


def test_process_waits_on_future_and_receives_value():
    sim = Simulator()
    future = Future(sim)
    got = []

    def proc():
        value = yield future
        got.append(value)

    spawn(sim, proc())
    sim.schedule(3.0, future.resolve, "payload")
    sim.run()
    assert got == ["payload"]
    assert sim.now == 3.0


def test_process_return_value_lands_in_completion_future():
    sim = Simulator()

    def proc():
        yield 1.0
        return 99

    process = spawn(sim, proc())
    sim.run()
    assert process.done
    assert process.result == 99
    assert process.completion.value == 99


def test_future_failure_raises_inside_process():
    sim = Simulator()
    future = Future(sim)
    caught = []

    def proc():
        try:
            yield future
        except RuntimeError as err:
            caught.append(str(err))

    spawn(sim, proc())
    sim.schedule(1.0, future.fail, RuntimeError("remote error"))
    sim.run()
    assert caught == ["remote error"]


def test_uncaught_process_exception_fails_completion():
    sim = Simulator()

    def proc():
        yield 1.0
        raise KeyError("dead")

    process = spawn(sim, proc())
    sim.run()
    assert process.done
    assert isinstance(process.error, KeyError)
    assert isinstance(process.completion.error, KeyError)


def test_process_waits_on_list_of_futures():
    sim = Simulator()
    f1, f2 = Future(sim), Future(sim)
    got = []

    def proc():
        values = yield [f1, f2]
        got.append(values)

    spawn(sim, proc())
    sim.schedule(2.0, f2.resolve, "b")
    sim.schedule(5.0, f1.resolve, "a")
    sim.run()
    assert got == [["a", "b"]]  # order follows the list, not resolution
    assert sim.now == 5.0


def test_all_of_empty_resolves_immediately():
    sim = Simulator()
    combined = all_of(sim, [])
    assert combined.done and combined.value == []


def test_all_of_fails_fast():
    sim = Simulator()
    f1, f2 = Future(sim), Future(sim)
    combined = all_of(sim, [f1, f2])
    f1.fail(ValueError("nope"))
    sim.run()
    assert isinstance(combined.error, ValueError)
    f2.resolve("late")  # must not blow up the combined future
    sim.run()


def test_yielding_garbage_kills_process_with_simulation_error():
    sim = Simulator()

    def proc():
        yield object()

    process = spawn(sim, proc())
    sim.run()
    assert isinstance(process.error, SimulationError)


@pytest.mark.parametrize("flag", [True, False])
def test_yielding_a_bool_is_unsupported_not_a_sleep(flag):
    """``bool`` is an ``int``: ``yield True`` used to sleep 1 ms in silence."""
    sim = Simulator()
    marks = []

    def proc():
        try:
            yield flag
        except SimulationError as err:
            marks.append((sim.now, str(err)))
            raise

    process = spawn(sim, proc(), name="flagger")
    sim.run()
    assert isinstance(process.error, SimulationError)
    assert marks == [(0.0, f"process 'flagger' yielded unsupported {flag!r}")]


def test_yield_none_reschedules_at_same_instant():
    sim = Simulator()
    marks = []

    def proc():
        yield None
        marks.append(sim.now)

    spawn(sim, proc())
    sim.run()
    assert marks == [0.0]


def test_two_processes_interleave_deterministically():
    sim = Simulator()
    out = []

    def proc(name, delay):
        for _ in range(3):
            yield delay
            out.append((name, sim.now))

    spawn(sim, proc("fast", 1.0))
    spawn(sim, proc("slow", 2.5))
    sim.run()
    assert out == [
        ("fast", 1.0),
        ("fast", 2.0),
        ("slow", 2.5),
        ("fast", 3.0),
        ("slow", 5.0),
        ("slow", 7.5),
    ]
