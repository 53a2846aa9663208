"""The benchmark's metric tables and how each number is computed.

``END_TO_END`` and ``PER_LAYER`` are the single source of names, units
and directions; ``BENCHMARK.json`` carries the same rows (the test
checks they match) plus the regression bounds.

``kind`` says how two runs of the same code compare (``agree.py``):

``time``   host time or memory: noisy, compared only through bounds
``count``  a counter or a ratio of counters: repeats exactly per seed
``simout`` a simulated-time output: repeats exactly, and must stay
           identical under any change that claims only speed
"""

from __future__ import annotations

from typing import Any

from calibrate import scaled_median
from spans import LAYERS, OTHER, Recorder

#: ``(name, unit, better)``
END_TO_END: tuple[tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "ops/s", "higher"),
    ("checked_ops_per_s", "ops/s", "higher"),
    ("fingerprint_ops_per_s", "ops/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
)

CHECK_GROUPS = ("session", "staleness", "causal", "linearizability")

#: ``(name, unit, better, kind)``
PER_LAYER: tuple[tuple[str, str, str, str], ...] = (
    *((f"{layer}.self_s_per_kop", "s/kop", "lower", "time") for layer in LAYERS),
    *((f"{layer}.calls_per_op", "1/op", "lower", "count") for layer in LAYERS),
    *((f"{layer}.profile_share", "ratio", "lower", "time") for layer in LAYERS),
    ("sim.events_per_s", "1/s", "higher", "time"),
    ("sim.events_per_op", "1/op", "lower", "count"),
    ("sim.cancels_per_op", "1/op", "lower", "count"),
    ("network.msgs_per_op", "1/op", "lower", "count"),
    ("network.dropped_share", "ratio", "lower", "count"),
    ("network.send_us", "us", "lower", "time"),
    ("rpc.attempts_per_op", "1/op", "lower", "count"),
    ("rpc.retries_per_op", "1/op", "lower", "count"),
    ("rpc.deadline_exceeded_share", "ratio", "lower", "count"),
    ("replication.handler_us", "us", "lower", "time"),
    ("replication.read_repairs_per_kop", "1/kop", "lower", "count"),
    ("replication.shed_share", "ratio", "lower", "count"),
    ("cache.hit_rate", "ratio", "higher", "count"),
    ("cache.fills_per_kop", "1/kop", "lower", "count"),
    ("sharding.route_us", "us", "lower", "time"),
    ("workload.gen_s", "s", "lower", "time"),
    ("histories.records_per_op", "1/op", "lower", "count"),
    *((f"checkers.{group}_s_per_kop", "s/kop", "lower", "time")
      for group in CHECK_GROUPS),
    ("checkers.convergence_s", "s", "lower", "time"),
    ("trace.records_per_event", "ratio", "lower", "count"),
    ("trace.record_us", "us", "lower", "time"),
    ("trace.fingerprint_slowdown", "ratio", "lower", "time"),
    ("chaos.faults_injected", "count", "higher", "count"),
    ("chaos.self_s", "s", "lower", "time"),
    ("crdt.merge_us", "us", "lower", "time"),
    ("crdt.copy_us", "us", "lower", "time"),
    ("analysis.snapshot_s", "s", "lower", "time"),
    ("analysis.latency_record_us", "us", "lower", "time"),
    ("mem.alloc_kb_per_kop", "KiB/kop", "lower", "time"),
    ("simout.read_p99_ms", "ms", "lower", "simout"),
    ("simout.write_p99_ms", "ms", "lower", "simout"),
    ("simout.stale_read_share", "ratio", "lower", "simout"),
    ("profile.calls_per_op", "1/op", "lower", "count"),
    ("bench.import_s", "s", "lower", "time"),
    ("bench.span_overhead_ratio", "ratio", "lower", "time"),
    ("bench.span_coverage", "ratio", "higher", "time"),
)

KIND = {name: kind for name, _unit, _better, kind in PER_LAYER}
UNIT = {name: unit for name, unit, *_rest in (*END_TO_END, *PER_LAYER)}


def end_to_end(
    attempted: int,
    plain: list[dict[str, float]],
    fingerprinted: list[dict[str, float]],
    loop_s: list[float],
    peak_rss_mb: float,
) -> dict[str, float]:
    """The end-to-end metrics from one run's repeats — each a dict of
    its phase seconds (``build``, ``run``, ``check``) — and the
    calibration-loop times taken between them.

    Every timing is the median over repeats, scaled by the median
    calibration loop (see calibrate.py for why, with the measured
    alternatives); first quartile, fastest and slowest raw times are
    printed beside it."""
    def typical(repeats: list[dict], *phases: str) -> float:
        return scaled_median(
            [sum(r[phase] for phase in phases) for r in repeats], loop_s)

    return {
        "setup_s": typical(plain + fingerprinted, "build"),
        "ops_per_s": attempted / typical(plain, "run"),
        "checked_ops_per_s": attempted / typical(plain, "run", "check"),
        "fingerprint_ops_per_s": attempted / typical(fingerprinted, "run"),
        "peak_rss_mb": peak_rss_mb,
    }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(
    *,
    ops: int,                    # ops per repeat
    plain: Any,                  # the reference repeat: no spans, no tracer
    fingerprint_run_s: float,    # the reference fingerprinted run phase
    trace_records: int,
    rec: Recorder,               # spans of the untraced-simulator repeats
    repeats: int,                # ... how many were summed into ``rec``
    span_elapsed_s: float,       # ... and how long one took (mean)
    rec_fp: Recorder,            # spans of one fingerprinted repeat
    check_groups: dict[str, tuple[str, ...]],   # group -> check names
    alloc_peak_kib: float,
    profile_self_s: dict[str, float],
    profile_calls: int,
    import_s: float,
) -> dict[str, float]:
    events = plain.events
    kops = ops / 1000.0
    traced_kops = kops * repeats
    self_s, calls = rec.by_layer(2), rec.by_layer(0)
    fp_self, fp_calls = rec_fp.by_layer(2), rec_fp.by_layer(0)
    profile_total = sum(profile_self_s.values())
    out: dict[str, float] = {}
    for layer in LAYERS:
        if layer == "trace":     # only a fingerprinted run has trace work
            out["trace.self_s_per_kop"] = fp_self.get(layer, 0.0) / kops
            out["trace.calls_per_op"] = fp_calls.get(layer, 0) / ops
        else:
            out[f"{layer}.self_s_per_kop"] = self_s.get(layer, 0.0) / traced_kops
            out[f"{layer}.calls_per_op"] = calls.get(layer, 0) / (ops * repeats)
        out[f"{layer}.profile_share"] = _ratio(
            profile_self_s.get(layer, 0.0), profile_total)

    counters = plain.snapshot.get("counters", {})
    sent = counters.get("net.messages_sent", 0)
    dropped = sum(value for name, value in counters.items()
                  if name.startswith("net.messages_dropped_"))
    attempts = counters.get("rpc.attempts", 0)
    hits, misses = counters.get("cache.hits", 0), counters.get("cache.misses", 0)

    def check_s(group: str) -> float:
        return sum(rec.total_s("checkers", name)
                   for name in check_groups.get(group, ())) / repeats

    out.update({
        "sim.events_per_s": _ratio(events, plain.run_s),
        "sim.events_per_op": events / ops,
        "sim.cancels_per_op": rec.calls("sim", "Event.cancel") / (ops * repeats),
        "network.msgs_per_op": sent / ops,
        "network.dropped_share": _ratio(dropped, sent),
        "network.send_us": rec.mean_us("network", "Network.send"),
        "rpc.attempts_per_op": attempts / ops,
        "rpc.retries_per_op": counters.get("rpc.retries", 0) / ops,
        "rpc.deadline_exceeded_share": _ratio(
            counters.get("rpc.deadline_exceeded", 0),
            counters.get("rpc.calls", 0)),
        "replication.handler_us": rec.mean_us("replication", "Node.deliver"),
        # The two quorum engines publish this under different prefixes.
        "replication.read_repairs_per_kop": sum(
            value for name, value in counters.items()
            if name.endswith(".read_repairs")) / kops,
        "replication.shed_share": _ratio(
            counters.get("server.shed", 0), attempts),
        "cache.hit_rate": _ratio(hits, hits + misses),
        "cache.fills_per_kop": counters.get("cache.fills", 0) / kops,
        "sharding.route_us": rec.mean_us(
            "sharding", "ShardedSession.get", "ShardedSession.put", column=2),
        "workload.gen_s": rec.total_s("workload", "YCSBWorkload.next_op") / repeats,
        "histories.records_per_op": plain.history_len / ops,
        **{f"checkers.{group}_s_per_kop": check_s(group) / kops
           for group in CHECK_GROUPS},
        "checkers.convergence_s": check_s("convergence"),
        "trace.records_per_event": _ratio(trace_records, events),
        "trace.record_us": rec_fp.mean_us("trace", "HashingTracer.record"),
        "trace.fingerprint_slowdown": _ratio(fingerprint_run_s, plain.run_s),
        "chaos.faults_injected": counters.get("chaos.steps", 0),
        "chaos.self_s": self_s.get("chaos", 0.0) / repeats,
        "crdt.merge_us": rec.mean_us("crdt", "ORSet.merge", "GCounter.merge"),
        "crdt.copy_us": rec.mean_us("crdt", "ORSet.copy", "GCounter.copy"),
        "analysis.snapshot_s": rec.total_s(
            "analysis", "MetricsRegistry.snapshot") / repeats,
        "analysis.latency_record_us": rec.mean_us(
            "analysis", "LatencyStats.record"),
        "mem.alloc_kb_per_kop": alloc_peak_kib / kops,
        "simout.read_p99_ms": plain.read_p99_ms,
        "simout.write_p99_ms": plain.write_p99_ms,
        "simout.stale_read_share": plain.stale_read_share,
        "profile.calls_per_op": profile_calls / ops,
        "bench.import_s": import_s,
        "bench.span_overhead_ratio": _ratio(span_elapsed_s, plain.elapsed_s),
        "bench.span_coverage": _ratio(rec.root_s / repeats, span_elapsed_s),
    })
    return out


def span_shares(rec: Recorder) -> dict[str, float]:
    """Each layer's share of all span self time (``other`` included in
    the total), for the cross-check against ``*.profile_share``."""
    self_s = rec.by_layer(2)
    total = sum(self_s.values())
    return {layer: _ratio(self_s.get(layer, 0.0), total)
            for layer in (*LAYERS, OTHER)}


def as_json(values: dict[str, float]) -> dict[str, dict[str, Any]]:
    return {name: {"value": value, "unit": UNIT[name]}
            for name, value in values.items()}
