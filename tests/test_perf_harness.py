"""The ``repro.perf`` measuring engine, its bench view (``run_suite``,
the BENCH_CORE document) and the CI compare gate.  The sweep view is
covered in ``test_perf_sweep.py``.

Scenario runs here use ``quick=True`` scale — these tests check the
engine's machinery (determinism, fingerprinting, comparison), not
absolute performance.
"""

import functools
import hashlib
import itertools
import json
import math
import pathlib
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.perf import (
    DEFAULT_SCENARIOS,
    SCENARIOS,
    HashingTracer,
    PerfError,
    Scenario,
    ScenarioOutcome,
    compare,
    render_report,
    run_scenario,
    run_suite,
)
from repro.sim import Simulator
from repro.sim.trace import Tracer, _time_text, kind_counts


def test_scenario_registry_names():
    assert set(SCENARIOS) == {
        "quorum_ycsb", "sharded_ring", "multipaxos", "crdt_merge_storm",
        "quorum_chaos", "openloop_overload", "quorum_ycsb_100x",
        "quorum_ycsb_cached",
    }
    for scenario in SCENARIOS.values():
        assert scenario.description


def test_default_scenarios_exclude_heavyweights():
    # The gated bench set (what BENCH_CORE.json pins) must not grow a
    # heavyweight or cross-layer scenario by accident; 100x and the
    # cached variant are opt-in only.
    assert set(DEFAULT_SCENARIOS) == set(SCENARIOS) - {
        "quorum_ycsb_100x", "quorum_ycsb_cached",
    }


def test_hashing_tracer_matches_dumped_jsonl(tmp_path):
    """HashingTracer's digest must be byte-comparable with a trace file
    written by the storing Tracer — that is what lets full-scale bench
    runs fingerprint behavior without holding the timeline in memory."""
    def drive(sim):
        net_like = []
        sim.schedule(1.0, net_like.append, "a")
        sim.schedule(2.0, net_like.append, "b")
        sim.run()
        sim.trace.annotate(sim.now, "checkpoint", detail=1)

    stored = Tracer()
    sim1 = Simulator(seed=7, tracer=stored)
    drive(sim1)
    path = tmp_path / "trace.jsonl"
    stored.dump_jsonl(path)
    file_digest = hashlib.sha256(path.read_bytes()).hexdigest()

    hashing = HashingTracer()
    sim2 = Simulator(seed=7, tracer=hashing)
    drive(sim2)
    assert hashing.hexdigest() == file_digest
    assert hashing.count == len(stored.events)


# -- the byte-equality contract as a property -------------------------------
# One random stream of record / annotate / event / message calls goes to
# a Tracer and a HashingTracer; the stream is built from the cases a
# fragment cache can get wrong.


class _Opaque:
    """Only ``default=repr`` can encode this (deterministically)."""

    def __init__(self, tag):
        self.tag = tag

    def __repr__(self):
        return f"<opaque {self.tag}>"

    def __call__(self):
        pass

    def method(self):
        pass


def _named():
    pass


_AWKWARD_TEXT = ["", "n1", "n2", "Reply", '"', "\\", "\n", "\u2028", "é", "true", "1"]
#: Equal under ``==`` (so one dict key) in groups, encoded differently.
_COLLIDING = [1, True, 1.0, 0, False, 0.0, -0.0]
#: Consecutive ticks a head cache must keep apart: equal times that
#: encode differently, and two that round to the same 6 d.p.
_TWIN_TIMES = [[0.0, 0], [0, 0.0, -0.0, 0.0], [1.0, True, 1, 1.0],
               [0.1234561, 0.1234564]]
#: The ``%.6f`` time text's range edges, values that look like halfway
#: cases at 6 d.p., and short and integral floats.
_EDGE_TIMES = [1e-4, math.nextafter(1e-4, 0), 1e9, math.nextafter(1e9, 0),
               999999999.9999996, 0.1234565, 123.4565, 0.0000995, 5.0, 1e8 + 0.5]
_TIMES = st.one_of(
    st.sampled_from(_TWIN_TIMES),
    st.lists(st.one_of(
        st.sampled_from([1e22, float("inf"), float("-inf"), float("nan")] + _EDGE_TIMES),
        st.floats(min_value=0.0, max_value=1e6),
    ), min_size=1, max_size=1),
)
_TEXT = st.one_of(st.sampled_from(_AWKWARD_TEXT), st.text(max_size=3))
_NODE_IDS = st.one_of(_TEXT, st.sampled_from(_COLLIDING + [7, (1, "a"), ("r", (2, 3))]))
_VALUES = st.one_of(
    _NODE_IDS,
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([None, _Opaque("x"), [1, {"k": [True, None]}],
                     {"a": {"b": [1.0, "é"]}}]),
)
_FIELDS = st.lists(
    st.tuples(st.sampled_from(["src", "dst", "key", "node", "value", "é", 'q"']),
              _VALUES),
    unique_by=lambda pair: pair[0], max_size=4,
)  # unique keys in random order: one kind sees its kwargs permuted
_CALLBACKS = st.sampled_from([
    _named, lambda: None, len, _Opaque("cb"), _Opaque("m").method,
    functools.partial(_Opaque("p").method), functools.partial(_named),
])
_CALLS = st.one_of(
    st.tuples(st.just("record"),
              st.sampled_from(["msg_send", "node_crash", "é\n", 1, True]), _FIELDS),
    st.tuples(st.just("annotate"), _TEXT, _FIELDS),
    st.tuples(st.just("event"), _CALLBACKS,
              st.one_of(st.integers(), st.sampled_from(_COLLIDING)),
              st.sampled_from([True, False, 1, 0, None])),
    st.tuples(st.just("message"),
              st.sampled_from(["msg_send", "msg_deliver", "msg_drop", "other"]),
              _NODE_IDS, _NODE_IDS, _TEXT,
              st.sampled_from([None, None, "loss", "crash", "é", 5])),
)
#: A step: its ticks' times (each one *object* shared by the tick's
#: calls, as in a simulator: the head cache hits by identity), the calls
#: made at each, how often to repeat them (the last choice pushes one
#: tick past the flush size) and whether to take a digest mid-stream.
_STEPS = st.lists(
    st.tuples(_TIMES, st.lists(_CALLS, max_size=6),
              st.sampled_from([1, 1, 1, 2, HashingTracer.FLUSH_LINES]), st.booleans()),
    max_size=8,
)


def _dumped_digest(tracer):
    return hashlib.sha256(tracer.dumps_jsonl().encode("utf-8")).hexdigest()


@settings(max_examples=100, deadline=None)
@given(_STEPS)
@example([([1.0], [("message", "msg_drop", "a", "b", "T", "loss"),
                   ("message", "msg_drop", "a", "b", "T", None)], 2, False)])
def test_hashing_tracer_matches_dumped_jsonl_on_any_stream(steps):
    # The example: a drop's body holds its reason, so it must never be the
    # cached body a reason-less record on the same link reuses.
    stored, hashing = Tracer(), HashingTracer()
    for times, calls, repeat, digest_now in steps:
        for time, (hook, *args) in itertools.product(times, calls * repeat):
            for tracer in (stored, hashing):
                if hook in ("record", "annotate"):
                    getattr(tracer, hook)(time, args[0], **dict(args[1]))
                else:
                    getattr(tracer, hook)(time, *args)
        if digest_now:  # mid-stream, and recording continues after it
            assert hashing.hexdigest() == _dumped_digest(stored)
            assert hashing.hexdigest() == hashing.hexdigest()
    assert hashing.count == len(stored.events)  # live: lines still buffered
    assert hashing.hexdigest() == _dumped_digest(stored)
    assert hashing.count == len(stored.events)  # ... and after the flush


def test_time_text_is_repr_of_round_to_6_places():
    """A line's time text equals ``repr(round(t, 6))`` — what ``to_json``
    writes — on a seeded sweep of every decade from 1e-6 to 1e10, past
    each edge of the ``%.6f`` range (further out, both sides only compare
    the fallback with itself), and on dyadic values, including the exact
    6-d.p. ties ``15625 * odd / 128`` that both must round half-even."""
    rng = random.Random(2013)
    times = itertools.chain(  # generated lazily: 1.8 M floats, never held at once
        (rng.uniform(10.0 ** exp, 10.0 ** (exp + 1))
         for exp in range(-6, 10) for _ in range(100_000)),
        (rng.randrange(1, 2 ** 40) / 2 ** n for n in range(64) for _ in range(2_000)),
        (15625 * odd / 128 for odd in range(1, 100_000, 2)))
    assert [t for t in times if _time_text(t) != repr(round(t, 6))] == []


@pytest.mark.parametrize("name", ["quorum_chaos", "multipaxos", "openloop_overload",
                                  "sharded_ring"])
def test_hashing_tracer_matches_dumped_jsonl_on_real_runs(monkeypatch, name):
    """The same equality on whole runs — drops, crashes and annotations
    in ``quorum_chaos``, 500 sessions' worth of distinct links through the
    message-body cache in ``openloop_overload`` — with the storing half
    dispatched by ``run()`` and the hashing half by a ``step()`` loop, so
    both hook sites of the simulator are held to it."""
    stored, hashing = Tracer(), HashingTracer()
    SCENARIOS[name].run(9, True, stored)

    def run_by_stepping(sim, until=None, max_events=None):
        assert max_events is None
        next_time = sim._queue.peek_time  # run(until) steps daemons too
        while until is None or (next_time() is not None and next_time() <= until):
            if not sim.step(daemons=until is not None):
                break
        if until is not None and sim.now < until:
            sim.now = until

    monkeypatch.setattr(Simulator, "run", run_by_stepping)
    SCENARIOS[name].run(9, True, hashing)
    kinds = kind_counts(stored.events)
    assert kinds["msg_send"] > 1000 and kinds["event_executed"] > 1000
    if name == "quorum_chaos":
        assert kinds["msg_drop"] and kinds["node_crash"] and kinds["annotation"]
    assert hashing.count == len(stored.events)
    assert hashing.hexdigest() == _dumped_digest(stored)


def test_run_scenario_quick_is_deterministic():
    first = run_scenario("crdt_merge_storm", seed=11, quick=True)
    second = run_scenario("crdt_merge_storm", seed=11, quick=True)
    assert first.trace_hash == second.trace_hash
    assert first.metrics_digest == second.metrics_digest
    assert first.events == second.events
    assert first.ops == second.ops
    assert first.events > 0 and first.ops > 0


def test_run_scenario_seed_changes_fingerprint():
    # A scenario over the network: the seed drives latency sampling, so a
    # different seed must yield a different delivery timeline.  (The
    # CRDT storm's *event structure* is deliberately seed-independent —
    # only payload contents vary — so it is not used here.)
    a = run_scenario("quorum_ycsb", seed=1, quick=True)
    b = run_scenario("quorum_ycsb", seed=2, quick=True)
    assert a.trace_hash != b.trace_hash


def test_crdt_storm_digest_pins_the_outcome(monkeypatch):
    """The storm's events and call counters are the same at every seed;
    its end-of-run gauges (live elements / dots, counter total, CRC-32
    of every replica's state) are what lets ``bench --compare`` see a
    CRDT bug: one skipped ``add`` of 600 moves the digest."""
    from repro.crdt import ORSet

    def digest(seed):
        return run_scenario("crdt_merge_storm", seed=seed, quick=True,
                            verify=False).metrics_digest

    honest = digest(1)
    assert honest != digest(2)
    calls, add = itertools.count(), ORSet.add
    monkeypatch.setattr(
        ORSet, "add",
        lambda self, item: add(self, item) if next(calls) != 100 else None)
    assert digest(1) != honest
    assert next(calls) > 101


def test_run_scenario_repeats_best_of():
    report = run_scenario("crdt_merge_storm", seed=11, quick=True, repeats=2)
    assert report.events > 0
    # ``verify`` (the default) keeps the traced pass's wall time, which
    # ``repro bench`` prints over the best untraced one as ``fp x``.
    assert report.traced_wall_s > 0 and report.to_json()["traced_wall_s"] > 0
    with pytest.raises(PerfError, match="repeats") as refused:
        run_scenario("crdt_merge_storm", seed=11, quick=True, repeats=0)
    assert refused.value.bad_input


def test_run_scenario_without_verify_has_no_trace_hash():
    record = run_scenario("crdt_merge_storm", seed=11, quick=True,
                          verify=False)
    assert record.trace_hash is None and record.trace_events is None
    assert record.traced_wall_s is None
    assert record.to_json()["traced_wall_s"] is None
    assert len(record.metrics_digest) == 64


@pytest.mark.parametrize("diverging_pass, cause", [
    (2, "repeat run"),      # second of two timed passes
    (3, "traced re-run"),   # the traced pass after them
])
def test_run_scenario_raises_on_a_diverging_pass(
        monkeypatch, diverging_pass, cause):
    """Every pass must reproduce the first one's (metrics digest,
    event count): a scenario that drifts on a repeat or under the
    tracer is refused, not measured."""
    passes = itertools.count(1)

    def flaky(seed, quick, tracer):
        sim = Simulator(seed=seed, tracer=tracer)
        sim.schedule(1.0, lambda: None)
        if next(passes) == diverging_pass:
            sim.metrics.counter("flaky.extra").inc()
        sim.run()
        return ScenarioOutcome(sim, 1)

    monkeypatch.setitem(SCENARIOS, "flaky", Scenario("flaky", "drifts", flaky))
    with pytest.raises(PerfError, match=cause) as caught:
        run_scenario("flaky", seed=1, quick=True, repeats=2)
    assert not caught.value.bad_input


def test_run_suite_document_shape():
    doc = run_suite(scenarios=["crdt_merge_storm"], seed=3, quick=True)
    assert doc["schema"] == "repro.perf.bench_core/1"
    assert doc["seed"] == 3
    assert doc["quick"] is True
    entry = doc["scenarios"]["crdt_merge_storm"]
    for field in ("events", "ops", "wall_s", "events_per_sec",
                  "ops_per_sec", "metrics_digest", "trace_hash"):
        assert field in entry
    # The document round-trips through JSON (that is its whole job).
    assert json.loads(json.dumps(doc)) == doc
    assert "crdt_merge_storm" in render_report(doc)


def test_run_suite_rejects_unknown_scenario():
    with pytest.raises(PerfError, match="unknown scenario 'nope'"):
        run_suite(scenarios=["crdt_merge_storm", "nope"], seed=1, quick=True)
    with pytest.raises(PerfError, match="workers"):
        run_suite(scenarios=["crdt_merge_storm"], quick=True, workers=0)


def test_run_suite_workers_match_serial():
    """``bench --workers``: fanning scenarios across the pool changes
    timings only — the behavior columns are those of the serial run,
    in request order."""
    names = ["crdt_merge_storm", "quorum_ycsb", "multipaxos"]
    serial = run_suite(scenarios=names, seed=3, quick=True)
    pooled = run_suite(scenarios=names, seed=3, quick=True, workers=2)
    assert list(pooled["scenarios"]) == names
    for name in names:
        for field in ("events", "ops", "metrics_digest", "trace_hash",
                      "trace_events"):
            assert pooled["scenarios"][name][field] \
                == serial["scenarios"][name][field], (name, field)


def test_bench_core_pins_exactly_the_default_scenarios():
    # BENCH_CORE.json is the pinned view of the gated catalogue:
    # ``compare`` flags scenarios *missing* from a run, so a default
    # scenario nobody pinned would otherwise go ungated silently.
    path = pathlib.Path(__file__).resolve().parents[1] / "BENCH_CORE.json"
    pinned = json.loads(path.read_text())["scenarios"]
    assert set(pinned) == set(DEFAULT_SCENARIOS)


def _doc(events_per_sec=1000.0, trace_hash="t1", metrics_digest="m1",
         seed=42, quick=True, python="3.11.7", peak_rss_kb=50_000):
    return {
        "schema": "repro.perf.bench_core/1",
        "seed": seed,
        "quick": quick,
        "python": python,
        "platform": "linux",
        "scenarios": {
            "s": {
                "events_per_sec": events_per_sec,
                "trace_hash": trace_hash,
                "metrics_digest": metrics_digest,
                "peak_rss_kb": peak_rss_kb,
            },
        },
    }


def test_compare_passes_within_tolerance():
    assert compare(_doc(events_per_sec=800.0), _doc(), tolerance=0.30) == []


def test_compare_flags_regression():
    problems = compare(_doc(events_per_sec=500.0), _doc(), tolerance=0.30)
    assert len(problems) == 1
    assert "regressed" in problems[0]


def test_compare_flags_rss_growth():
    problems = compare(_doc(peak_rss_kb=70_000), _doc())
    assert len(problems) == 1
    assert "peak RSS grew" in problems[0]


def test_compare_rss_within_tolerance_passes():
    # 20% growth is the fence; 15% stays inside it, and a missing
    # measurement (None on Windows) must not trip the gate.
    assert compare(_doc(peak_rss_kb=57_500), _doc()) == []
    assert compare(_doc(peak_rss_kb=None), _doc()) == []
    assert compare(_doc(), _doc(peak_rss_kb=None)) == []


def test_compare_flags_missing_scenario():
    current = _doc()
    current["scenarios"] = {}
    problems = compare(current, _doc())
    assert problems == ["s: missing from current run"]


def test_compare_flags_fingerprint_change_same_basis():
    problems = compare(_doc(trace_hash="t2"), _doc())
    assert any("trace_hash changed" in p for p in problems)


def test_compare_ignores_fingerprints_across_basis_changes():
    # Different seed, scale, or Python minor: hashes are incomparable
    # and only the throughput gate applies.
    for variant in (
        _doc(trace_hash="t2", seed=43),
        _doc(trace_hash="t2", quick=False),
        _doc(trace_hash="t2", python="3.12.1"),
    ):
        assert compare(variant, _doc()) == []


def test_cli_bench_list(capsys):
    assert main(["bench", "--list"]) == 0
    out = capsys.readouterr().out
    assert "quorum_ycsb" in out and "sharded_ring" in out


def test_cli_bench_quick_compare_roundtrip(tmp_path, capsys):
    """bench --output then --compare against its own output: the gate
    must pass (same machine, same code, identical fingerprints)."""
    baseline = tmp_path / "BENCH_CORE.json"
    assert main([
        "bench", "--quick", "--seed", "5",
        "--scenario", "crdt_merge_storm",
        "--output", str(baseline),
    ]) == 0
    assert baseline.exists()
    assert main([
        "bench", "--quick", "--seed", "5",
        "--scenario", "crdt_merge_storm",
        "--compare", str(baseline),
        "--tolerance", "0.99",
    ]) == 0
    out = capsys.readouterr().out
    assert "OK vs baseline" in out


def test_cli_bench_compare_detects_doctored_baseline(tmp_path, capsys):
    baseline = tmp_path / "BENCH_CORE.json"
    assert main([
        "bench", "--quick", "--seed", "5",
        "--scenario", "crdt_merge_storm",
        "--output", str(baseline),
    ]) == 0
    doc = json.loads(baseline.read_text())
    entry = doc["scenarios"]["crdt_merge_storm"]
    entry["events_per_sec"] = entry["events_per_sec"] * 1e6
    baseline.write_text(json.dumps(doc))
    assert main([
        "bench", "--quick", "--seed", "5",
        "--scenario", "crdt_merge_storm",
        "--compare", str(baseline),
    ]) == 1


def test_scenarios_error_cleanly_on_bad_name():
    with pytest.raises(PerfError, match="unknown scenario") as refused:
        run_scenario("missing", quick=True)
    assert refused.value.bad_input


def test_perf_harness_error_is_repro_error():
    from repro.errors import ReproError
    assert issubclass(PerfError, ReproError)
