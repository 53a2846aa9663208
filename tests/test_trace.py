"""Tests for the structured tracing layer (repro.sim.trace)."""

import functools

import pytest

from repro.cli import main as cli_main
from repro.sim import (
    NULL_TRACER,
    FixedLatency,
    HashingTracer,
    Network,
    NullTracer,
    Simulator,
    Tracer,
)
from repro.sim.node import Node
from repro.sim.trace import filter_events, load_jsonl, message_summary


class Echo(Node):
    """Replies 'pong' to every delivery."""

    def deliver(self, src, message):
        if message == "ping":
            self.send(src, "pong")


def traced_pair(seed=0, **net_kwargs):
    tracer = Tracer()
    sim = Simulator(seed=seed, tracer=tracer)
    net = Network(sim, latency=FixedLatency(1.0), **net_kwargs)
    a = Echo(sim, net, "a")
    b = Echo(sim, net, "b")
    return sim, net, tracer, a, b


def test_default_tracer_is_shared_noop():
    sim = Simulator()
    assert sim.trace is NULL_TRACER
    assert isinstance(sim.trace, NullTracer)
    assert not sim.trace.enabled
    sim.trace.record(0.0, "whatever", x=1)  # accepted, records nothing


def test_executed_events_recorded():
    tracer = Tracer()
    sim = Simulator(tracer=tracer)
    sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.run()
    executed = filter_events(tracer.events, kind="event_executed")
    assert [event.time for event in executed] == [1.0, 2.0]
    assert all("fn" in event.data for event in executed)


def test_callback_names_never_hold_a_memory_address():
    """A callable instance and a ``partial`` have no ``__qualname__``;
    naming them by ``repr`` put an address in the trace, so one seed
    hashed differently in two processes.  Two simulators, distinct
    (live) instances, hence distinct addresses: same bytes."""

    class Callback:
        def __call__(self):
            pass

        def method(self, _arg):
            pass

    def traced_run(owner):
        stored, hashing = Tracer(), HashingTracer()
        for tracer in (stored, hashing):
            sim = Simulator(tracer=tracer)
            sim.schedule(1.0, owner)
            sim.schedule(2.0, functools.partial(owner.method, 1))
            sim.run()
        return stored, hashing.hexdigest()

    one, other = Callback(), Callback()
    (stored, digest), (_stored, other_digest) = traced_run(one), traced_run(other)
    assert digest == other_digest
    assert "0x" not in stored.dumps_jsonl()
    names = [event.data["fn"] for event in stored]
    prefix = "test_callback_names_never_hold_a_memory_address.<locals>.Callback"
    assert names == [prefix, f"partial({prefix}.method)"]


def test_send_and_deliver_traced():
    sim, _net, tracer, _a, _b = traced_pair()
    _a.send("b", "ping")
    sim.run()
    sends = filter_events(tracer.events, kind="msg_send")
    delivers = filter_events(tracer.events, kind="msg_deliver")
    assert len(sends) == 2  # ping + pong
    assert len(delivers) == 2
    assert sends[0].data == {"src": "a", "dst": "b", "msg_type": "str"}
    assert delivers[0].time == 1.0


def test_drop_reasons_traced():
    # loss
    sim, net, tracer, a, b = traced_pair(seed=3, loss_rate=0.9)
    for _ in range(20):
        net.send("a", "b", "lossy")
    sim.run()
    assert filter_events(tracer.events, kind="msg_drop", reason="loss")
    # partition
    tracer.clear()
    net.loss_rate = 0.0
    net.partition(["a"], ["b"])
    net.send("a", "b", "blocked")
    assert filter_events(tracer.events, kind="msg_drop", reason="partition")
    # crash (destination)
    tracer.clear()
    net.heal()
    b.crash()
    net.send("a", "b", "to-the-dead")
    sim.run()
    drops = filter_events(tracer.events, kind="msg_drop", reason="crash")
    assert drops and drops[0].data["dst"] == "b"


def test_node_crash_and_recover_traced():
    sim, _net, tracer, a, _b = traced_pair()
    a.crash()
    sim.run(until=5.0)
    a.recover()
    crashes = filter_events(tracer.events, kind="node_crash")
    recovers = filter_events(tracer.events, kind="node_recover")
    assert [event.data["node"] for event in crashes] == ["a"]
    assert [event.data["node"] for event in recovers] == ["a"]
    assert recovers[0].time == 5.0


def test_sim_annotate_records_annotation():
    tracer = Tracer()
    sim = Simulator(tracer=tracer)
    sim.annotate("my_category", key="k", extra=7)
    notes = filter_events(tracer.events, kind="annotation", category="my_category")
    assert len(notes) == 1
    assert notes[0].data["extra"] == 7


def test_annotate_is_noop_without_tracer():
    sim = Simulator()
    sim.annotate("ignored", x=1)  # must not raise or allocate a tracer
    assert sim.trace is NULL_TRACER


def test_filter_by_time_window_and_field():
    tracer = Tracer()
    for t in (1.0, 2.0, 3.0):
        tracer.record(t, "msg_send", src="a", dst="b", msg_type="Ping")
    tracer.record(2.0, "msg_send", src="b", dst="a", msg_type="Pong")
    assert len(filter_events(tracer.events, since=2.0)) == 3
    assert len(filter_events(tracer.events, until=2.0)) == 3
    assert len(filter_events(tracer.events, since=2.0, until=2.0)) == 2
    assert len(filter_events(tracer.events, src="b")) == 1
    assert len(filter_events(tracer.events, kind=["msg_send"], msg_type="Ping")) == 3


def test_message_summary_counts_by_type():
    sim, net, tracer, a, b = traced_pair()
    a.send("b", "ping")
    sim.run()
    b.crash()
    net.send("a", "b", 42)
    sim.run()
    summary = tracer.message_summary()
    assert summary["str"] == {
        "sent": 2, "delivered": 2, "dropped": 0, "drop_reasons": {},
    }
    assert summary["int"] == {
        "sent": 1, "delivered": 0, "dropped": 1,
        "drop_reasons": {"crash": 1},
    }


def test_capacity_caps_retention():
    tracer = Tracer(capacity=3)
    for t in range(10):
        tracer.record(float(t), "event_executed")
    assert len(tracer) == 3
    assert tracer.dropped == 7
    tracer.clear()
    assert len(tracer) == 0 and tracer.dropped == 0
    with pytest.raises(ValueError):
        Tracer(capacity=-1)


def test_jsonl_roundtrip(tmp_path):
    sim, _net, tracer, a, _b = traced_pair()
    a.send("b", "ping")
    sim.run()
    sim.annotate("note", payload=object())  # non-JSON value -> repr()
    path = tmp_path / "run.trace.jsonl"
    count = tracer.dump_jsonl(path)
    assert count == len(tracer)
    loaded = load_jsonl(path)
    assert len(loaded) == count
    assert [e.kind for e in loaded] == [e.kind for e in tracer]
    assert message_summary(loaded) == tracer.message_summary()
    # filter_events works identically on loaded events
    assert filter_events(loaded, kind="msg_send")[0].data["dst"] == "b"


def test_tracing_does_not_change_execution(tmp_path):
    def run(tracer):
        sim = Simulator(seed=11, tracer=tracer)
        net = Network(sim, latency=FixedLatency(1.0), loss_rate=0.2)
        a = Echo(sim, net, "a")
        Echo(sim, net, "b")
        for _ in range(50):
            a.send("b", "ping")
        sim.run()
        return sim.now, sim.events_processed, sim.metrics.counter("net.messages_delivered").value

    assert run(None) == run(Tracer())


def test_cli_trace_summarizes(tmp_path, capsys):
    sim, _net, tracer, a, _b = traced_pair()
    a.send("b", "ping")
    sim.run()
    path = tmp_path / "cli.trace.jsonl"
    tracer.dump_jsonl(path)
    assert cli_main(["trace", str(path)]) == 0
    out = capsys.readouterr().out
    assert "msg_send" in out
    assert "per-message-type summary" in out
    # kind filter narrows the selection (this trace has no drops)
    assert cli_main(["trace", str(path), "--kind", "msg_drop",
                     "--summary-only"]) == 0
    out = capsys.readouterr().out
    assert "0/" in out and "trace events selected" in out


def test_cli_trace_missing_file(capsys):
    assert cli_main(["trace", "/nonexistent/x.jsonl"]) == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("bad_line", [
    "[1, 2]",                                    # valid JSON, not an object
    '{"time": null, "kind": "annotation"}',      # a time that is no number
    '"msg_send"',
    '{"time": [1], "kind": "annotation"}',
    '{"time": 1.0, "kind": ',                    # not JSON at all
    '{"time": ' + "9" * 400 + "}",               # an int no float can hold
], ids=["array", "null_time", "string", "array_time", "truncated", "huge_int_time"])
def test_cli_trace_rejects_a_malformed_line_by_number(tmp_path, capsys, bad_line):
    path = tmp_path / "bad.trace.jsonl"
    path.write_text('{"time": 1.0, "kind": "annotation"}\n\n' + bad_line + "\n")
    assert cli_main(["trace", str(path)]) == 2
    err = capsys.readouterr().err
    assert "cannot read trace" in err and "line 3: " in err
