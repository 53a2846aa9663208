"""The repo's host-performance benchmark: one command, six workloads.

    python3 bench/run.py                      # every workload, end to end
    python3 bench/run.py --traced             # ... and layer by layer
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Without ``--workload`` each workload runs in its own fresh subprocess,
one at a time (``PYTHONHASHSEED=0``), and the collected results go to
``--out``.  With ``--workload`` the run happens in this process and the
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Any failed
correctness check makes the exit code non-zero.

See README.md in this directory for what each metric and workload is.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import pstats
import resource
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass
from statistics import median, quantiles
from time import perf_counter
from typing import Any, Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

# The program under test is imported from the checkout this file sits
# in, never from an installed copy; without it there is nothing to
# measure and the import error ends the run.
sys.path[:0] = [SRC, HERE]
_import_start = perf_counter()
from repro.perf import HashingTracer, metrics_digest  # noqa: E402

import calibrate  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

IMPORT_S = perf_counter() - _import_start

#: Repeats a run makes however short ``--seconds`` is: the repeat
#: digests need something to agree with.
MIN_CYCLES = 2
#: Span-vs-profile disagreement (points of share) worth a flag.
CROSS_CHECK_POINTS = 0.10


def _load_benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# One repeat: build -> run -> check, each phase timed after a gc.collect()
# ---------------------------------------------------------------------------
@dataclass
class Repeat:
    build_s: float
    run_s: float
    check_s: float
    elapsed_s: float              # the whole repeat, collections included
    attempted: int
    failed: int
    events: int
    digest: str
    verdicts: dict[str, bool]
    wrong: list[str]              # checks whose verdict was not the expected one
    history_len: int
    read_p99_ms: float
    write_p99_ms: float
    stale_read_share: float
    snapshot: dict                # sim.metrics.snapshot() after the run

    def phases(self) -> dict[str, float]:
        return {"build": self.build_s, "run": self.run_s,
                "check": self.check_s}


def _phase(name: str, fn: Callable, *args: Any) -> tuple[Any, float]:
    """Run one phase as a root span (when spans are on) and time it."""
    spans.call("bench", "gc", gc.collect)
    start = perf_counter()
    value = spans.call("bench", name, fn, *args)
    return value, perf_counter() - start


def _run_checks(workload: Any, world: Any, outcome: Any) -> tuple[dict, list]:
    verdicts: dict[str, bool] = {}
    wrong: list[str] = []
    for name, _group, expected, fn in workload.checks:
        ok = bool(spans.call("checkers", name, fn, world, outcome))
        verdicts[name] = ok
        if expected is not None and ok != expected:
            wrong.append(f"{name}: expected {expected}, got {ok}")
    return verdicts, wrong


def repeat(workload: Any, seed: int, ops: int, tracer: Any = None,
           check: bool = True) -> Repeat:
    start = perf_counter()
    world, build_s = _phase("build", workload.build, seed, ops, tracer)
    outcome, run_s = _phase("run", workload.run, world)
    verdicts, wrong, check_s = {}, [], 0.0
    if check:
        (verdicts, wrong), check_s = _phase(
            "check", _run_checks, workload, world, outcome)
    snapshot = world.sim.metrics.snapshot()
    elapsed_s = perf_counter() - start
    latency = (outcome.read_latency, outcome.write_latency)
    return Repeat(
        build_s=build_s, run_s=run_s, check_s=check_s, elapsed_s=elapsed_s,
        attempted=outcome.attempted, failed=outcome.failed,
        events=world.sim.events_processed,
        digest=metrics_digest(snapshot),
        verdicts=verdicts, wrong=wrong,
        history_len=len(outcome.history) if outcome.history is not None else 0,
        read_p99_ms=latency[0].p99 if latency[0] is not None else 0.0,
        write_p99_ms=latency[1].p99 if latency[1] is not None else 0.0,
        stale_read_share=workloads.stale_read_share(outcome) if check else 0.0,
        snapshot=snapshot,
    )


@dataclass
class Cycle:
    """One untraced repeat and one fingerprinted repeat of the same
    build, with the calibration loop timed after each."""

    plain: Repeat
    fingerprinted: Repeat
    trace_hash: str
    trace_records: int
    loop_s: tuple[float, float]


def cycle(workload: Any, seed: int, ops: int) -> Cycle:
    plain = repeat(workload, seed, ops)
    loop_plain = calibrate.loop_seconds()
    tracer = HashingTracer()
    fingerprinted = repeat(workload, seed, ops, tracer, check=False)
    return Cycle(plain, fingerprinted, tracer.hexdigest(), tracer.count,
                 (loop_plain, calibrate.loop_seconds()))


class Problems(list):
    """Correctness failures found so far (empty = correct)."""

    def expect_same(self, what: str, values: list) -> None:
        distinct = sorted({str(value) for value in values})
        if len(distinct) > 1:
            self.append(f"{what} differs between repeats: {distinct}")


def _verify_cycles(cycles: list[Cycle], ops: int, problems: Problems) -> None:
    plains = [c.plain for c in cycles]
    fps = [c.fingerprinted for c in cycles]
    problems.expect_same("metrics digest", [r.digest for r in plains + fps])
    problems.expect_same("events processed", [r.events for r in plains + fps])
    problems.expect_same("trace hash", [c.trace_hash for c in cycles])
    problems.expect_same("verdicts", [sorted(r.verdicts.items()) for r in plains])
    first = plains[0]
    if first.attempted != ops:
        problems.append(f"attempted {first.attempted} ops, configured {ops}")
    problems.extend(first.wrong)


def _exact(cycles: list[Cycle]) -> dict:
    """Values that repeat exactly per seed; printed so a speed-only
    change can show they did not move (not pinned here)."""
    first = cycles[0]
    return {
        "metrics_digest": first.plain.digest,
        "trace_hash": first.trace_hash,
        "trace_records": first.trace_records,
        "events": first.plain.events,
        "verdicts": first.plain.verdicts,
    }


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics, tracing off
# ---------------------------------------------------------------------------
def measure(workload: Any, seed: int, ops: int, seconds: float,
            problems: Problems) -> tuple[dict, list[Cycle]]:
    deadline = perf_counter() + seconds
    cycles: list[Cycle] = []
    while len(cycles) < MIN_CYCLES or perf_counter() < deadline:
        cycles.append(cycle(workload, seed, ops))
    _verify_cycles(cycles, ops, problems)
    plains = [c.plain for c in cycles]
    fps = [c.fingerprinted for c in cycles]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    loop_s = [seconds for c in cycles for seconds in c.loop_s]
    values = metrics.end_to_end(
        attempted=plains[0].attempted,
        plain=[r.phases() for r in plains],
        fingerprinted=[r.phases() for r in fps],
        loop_s=loop_s,
        peak_rss_mb=peak_rss_mb,
    )
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{workload.name}.samples.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"plain": [r.phases() for r in plains],
                   "fingerprinted": [r.phases() for r in fps],
                   "loop_s": loop_s}, fh)
    print(f"  raw host seconds (reported: median x "
          f"{calibrate.NOMINAL_S / median(loop_s):.3f}, the calibration scale)")
    _print_samples("calibration loop", loop_s)
    _print_samples("build", [r.build_s for r in plains + fps])
    _print_samples("run", [r.run_s for r in plains])
    _print_samples("check", [r.check_s for r in plains])
    _print_samples("fingerprinted run", [r.run_s for r in fps])
    return values, cycles


def _print_samples(label: str, samples: list[float]) -> None:
    q1 = quantiles(samples, n=4)[0]
    print(f"  {label:<18} median {median(samples):.6f} s  q1 {q1:.6f}  "
          f"min {min(samples):.6f}  max {max(samples):.6f}  "
          f"n={len(samples)}")


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics from a span-traced run, cross-checked
# ---------------------------------------------------------------------------
def _profile_by_layer(workload: Any, seed: int, ops: int) -> tuple[dict, int, str]:
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        digest = repeat(workload, seed, ops).digest
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler).stats
    self_s: dict[str, float] = {}
    calls = 0
    for (filename, _line, _fn), (_cc, ncalls, tottime, _ct, _callers) in stats.items():
        layer = spans.layer_of_file(filename)
        self_s[layer] = self_s.get(layer, 0.0) + tottime
        calls += ncalls
    return self_s, calls, digest


def trace(workload: Any, seed: int, ops: int, seconds: float,
          problems: Problems, import_s: float) -> tuple[dict, list[Cycle]]:
    deadline = perf_counter() + seconds
    reference = cycle(workload, seed, ops)
    _verify_cycles([reference], ops, problems)
    plain = reference.plain

    # Untraced-simulator repeats under spans, for as long as the budget
    # allows: more repeats, steadier per-layer times.
    rec = spans.install()
    span_repeats: list[Repeat] = []
    try:
        while not span_repeats or perf_counter() < deadline:
            span_repeats.append(repeat(workload, seed, ops))
    finally:
        spans.uninstall(rec)

    # One fingerprinted repeat under spans: what the tracer costs.
    rec_fp = spans.install()
    try:
        tracer = HashingTracer()
        span_fp = repeat(workload, seed, ops, tracer, check=False)
    finally:
        spans.uninstall(rec_fp)
    if tracer.hexdigest() != reference.trace_hash:
        problems.append("trace hash under spans differs from the plain one")

    tracemalloc.start()
    try:
        malloc_digest = repeat(workload, seed, ops).digest
        alloc_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    profile_self_s, profile_calls, profile_digest = _profile_by_layer(
        workload, seed, ops)
    problems.expect_same(
        "metrics digest (plain, spans, fingerprint+spans, tracemalloc, cProfile)",
        [plain.digest, *(r.digest for r in span_repeats), span_fp.digest,
         malloc_digest, profile_digest])

    n = len(span_repeats)
    groups: dict[str, tuple[str, ...]] = {}
    for name, group, _expected, _fn in workload.checks:
        groups[group] = (*groups.get(group, ()), name)
    values = metrics.per_layer(
        ops=ops, plain=plain,
        fingerprint_run_s=reference.fingerprinted.run_s,
        trace_records=reference.trace_records,
        rec=rec, repeats=n,
        span_elapsed_s=sum(r.elapsed_s for r in span_repeats) / n,
        rec_fp=rec_fp, check_groups=groups,
        alloc_peak_kib=alloc_peak / 1024.0,
        profile_self_s=profile_self_s, profile_calls=profile_calls,
        import_s=import_s,
    )
    os.makedirs(OUT_DIR, exist_ok=True)
    rec.write_jsonl(os.path.join(OUT_DIR, f"{workload.name}.spans.jsonl"))
    _print_cross_check(rec, values, n)
    return values, [reference]


def _print_cross_check(rec: Any, values: dict, repeats: int) -> None:
    shares = metrics.span_shares(rec)
    print(f"  layer shares of host time over {repeats} span-traced repeat(s) "
          "(spans vs cProfile by source file):")
    for layer in spans.LAYERS:
        by_span, by_profile = shares[layer], values[f"{layer}.profile_share"]
        flag = ("   <-- differ by more than 10 points"
                if abs(by_span - by_profile) > CROSS_CHECK_POINTS else "")
        print(f"    {layer:<12} spans {by_span:6.1%}   profile {by_profile:6.1%}{flag}")
    print(f"    {'other':<12} spans {shares[spans.OTHER]:6.1%}")
    run_s, check_s = rec.total_s("bench", "run"), rec.total_s("bench", "check")
    print(f"  check phase: {check_s / (run_s + check_s):.1%} of run + check "
          "under spans")


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------
def run_one(args: argparse.Namespace, import_s: float) -> int:
    workload = workloads.WORKLOADS[args.workload]
    ops = workload.smoke_ops if args.smoke else workload.ops
    problems = Problems()
    print(f"{workload.name}: seed {args.seed}, {ops} ops per repeat, "
          f"{'per-layer (traced)' if args.trace else 'end-to-end'}")
    if args.trace:
        values, cycles = trace(workload, args.seed, ops, args.seconds,
                               problems, import_s)
    else:
        values, cycles = measure(workload, args.seed, ops, args.seconds,
                                 problems)
    for name, value in values.items():
        print(f"  {name:<36} {value:>14.6g} {metrics.UNIT[name]}")
    for problem in problems:
        print(f"  INCORRECT: {problem}")
    first = cycles[0].plain
    print("exact " + json.dumps(_exact(cycles), sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": first.attempted,
        "failed": first.failed,
        "metrics": metrics.as_json(values),
    }))
    return 1 if problems else 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own fresh interpreter, one at a time."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    results: dict[str, dict] = {}
    status = 0
    for name in workloads.WORKLOADS:
        entry = results[name] = {}
        for traced in ((0, 1) if args.traced else (0,)):
            command = [sys.executable, os.path.abspath(__file__),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(traced)]
            if args.smoke:
                command.append("--smoke")
            done = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                                  text=True, check=False)
            lines = done.stdout.splitlines()
            print("\n".join(lines[:-2]))
            if done.returncode != 0:
                status = 1
            if len(lines) < 2 or not lines[-2].startswith("exact "):
                print(f"{name}: no result (exit code {done.returncode})")
                status = 1
                continue
            result = json.loads(lines[-1])
            entry.setdefault("exact", json.loads(lines[-2][len("exact "):]))
            entry["correct"] = entry.get("correct", True) and result["correct"]
            entry["attempted"], entry["failed"] = (
                result["attempted"], result["failed"])
            entry["per_layer" if traced else "end_to_end"] = result["metrics"]
    out = os.path.abspath(args.out)
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"seed": args.seed, "smoke": args.smoke,
                   "workloads": results}, fh, indent=1, sort_keys=True)
    print(f"wrote {os.path.relpath(out)}"
          + ("" if status == 0 else "  (some checks FAILED)"))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float,
                        default=_load_benchmark_json()["run_seconds"],
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 = per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="without --workload: also run every --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes, for the benchmark's own test")
    parser.add_argument("--out", default=os.path.join(OUT_DIR, "result.json"))
    args = parser.parse_args(argv)
    if args.workload:
        return run_one(args, IMPORT_S)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
