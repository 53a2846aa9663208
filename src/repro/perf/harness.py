"""The one measuring engine under ``repro bench`` and ``repro sweep``.

One instrument, written once:

* :func:`run_scenario` measures one ``(scenario, seed)``: N timed
  untraced passes (wall clock best-of-N, events/sec, ops/sec, peak RSS
  high-water mark), then one pass under
  :class:`~repro.sim.HashingTracer` for the behavior fingerprint
  (SHA-256 over the exact JSONL the :class:`~repro.sim.Tracer` would
  dump, plus a digest of ``metrics.snapshot()``).  Every pass must
  reproduce the first one — repeats must not drift and tracing must
  never perturb a simulation.  The result is one :class:`RunRecord`.
* :func:`run_matrix` runs a list of such tasks, serially or on the
  only process pool in the package.  One simulation is single-threaded
  by construction (determinism comes from a totally ordered event
  loop), so the way to go faster is to run *many at once*, one fully
  independent simulator per worker.

Two thin views sit on the matrix: :func:`run_suite` (*scenarios × one
seed* → the ``BENCH_CORE.json`` document :func:`compare` gates) and
:func:`run_sweep` (*one scenario × seeds* → :class:`SweepReport`, with
:func:`check_parallel_determinism` proving fan-out changed nothing but
the wall clock).

The behavior fingerprint is the contract that makes perf PRs safe:
same seed ⇒ same trace hash and metrics digest before and after an
optimization, or the optimization changed semantics.
"""

from __future__ import annotations

import multiprocessing
import platform
import sys
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..errors import ReproError
from ..sim.trace import HashingTracer, metrics_digest
from .scenarios import DEFAULT_SCENARIOS, SCENARIOS, Scenario

SCHEMA = "repro.perf.bench_core/1"
DEFAULT_SEED = 42
#: CI guard: fail when a scenario's events/sec drops by more than this
#: fraction against the committed baseline.
DEFAULT_TOLERANCE = 0.30
#: CI guard: fail when a scenario's peak RSS grows by more than this
#: fraction against the committed baseline.  Wider than the throughput
#: tolerance would be too forgiving: RSS is a high-water mark and far
#: less noisy than wall clock.
RSS_TOLERANCE = 0.20

try:  # pragma: no cover - resource is POSIX-only
    import resource
except ImportError:  # pragma: no cover - windows fallback
    resource = None  # type: ignore[assignment]


class PerfError(ReproError):
    """The engine refused its input (``bad_input``: unknown scenario,
    bad seed spec, ``workers`` / ``repeats`` < 1) or caught a scenario
    misbehaving (a pass, or a parallel sweep, that diverged)."""

    def __init__(self, message: str, bad_input: bool = False) -> None:
        super().__init__(message)
        self.bad_input = bad_input


def _peak_rss_kb() -> int | None:
    """Process peak RSS in KiB (monotone high-water mark), or None."""
    if resource is None:  # pragma: no cover - windows fallback
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes; normalize to KiB.
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        peak //= 1024
    return int(peak)


def _checked(name: str, repeats: int) -> Scenario:
    """The scenario a task names, or the refusal of a bad task."""
    if name not in SCENARIOS:
        raise PerfError(
            f"unknown scenario {name!r} (have: {', '.join(SCENARIOS)})",
            bad_input=True,
        )
    if repeats < 1:
        raise PerfError("repeats must be >= 1", bad_input=True)
    return SCENARIOS[name]


@dataclass(frozen=True)
class RunRecord:
    """One ``(scenario, seed)``'s measured + fingerprinted outcome."""

    scenario: str
    seed: int
    events: int
    ops: int
    wall_s: float
    peak_rss_kb: int | None
    metrics_digest: str
    trace_hash: str | None = None
    trace_events: int | None = None
    #: Wall time of the traced pass; over ``wall_s``, the fingerprint's cost.
    traced_wall_s: float | None = None

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_s

    @property
    def ops_per_sec(self) -> float:
        return self.ops / self.wall_s

    @property
    def fingerprint(self) -> tuple[int, str | None, str]:
        return (self.seed, self.trace_hash, self.metrics_digest)

    def to_json(self) -> dict:
        return {
            "description": SCENARIOS[self.scenario].description,
            "seed": self.seed,
            "events": self.events,
            "ops": self.ops,
            "wall_s": round(self.wall_s, 4),
            "traced_wall_s": self.traced_wall_s and round(self.traced_wall_s, 4),
            "events_per_sec": round(self.events_per_sec, 1),
            "ops_per_sec": round(self.ops_per_sec, 1),
            "peak_rss_kb": self.peak_rss_kb,
            "metrics_digest": self.metrics_digest,
            "trace_hash": self.trace_hash,
            "trace_events": self.trace_events,
        }


def run_scenario(
    name: str,
    seed: int = DEFAULT_SEED,
    quick: bool = False,
    verify: bool = True,
    repeats: int = 1,
) -> RunRecord:
    """Measure one scenario at one seed.

    ``repeats`` timed (untraced) passes keep the best wall time —
    best-of-N is the standard defense against scheduler noise on shared
    machines.  With ``verify``, one more pass runs under a
    :class:`HashingTracer` for the trace hash.  Every pass after the
    first must reproduce its ``(metrics_digest, events_processed)`` or
    the scenario is declared nondeterministic.
    """
    scenario = _checked(name, repeats)
    wall = float("inf")
    first = tracer = None
    for index in range(repeats + bool(verify)):
        tracer = HashingTracer() if index == repeats else None
        start = time.perf_counter()
        outcome = scenario.run(seed, quick, tracer)
        elapsed = time.perf_counter() - start
        behavior = (metrics_digest(outcome.sim.metrics.snapshot()),
                    outcome.sim.events_processed)
        if first is None:
            first, ops = behavior, outcome.ops
        elif behavior != first:
            raise PerfError(
                f"scenario {name!r} is nondeterministic at seed {seed}: "
                f"{'traced re-run' if tracer else 'repeat run'} diverged "
                "from the first timed run"
            )
        if tracer is None:
            wall = min(wall, elapsed)
    digest, events = first
    return RunRecord(
        scenario=name,
        seed=seed,
        events=events,
        ops=ops,
        wall_s=max(wall, 1e-9),
        peak_rss_kb=_peak_rss_kb(),
        metrics_digest=digest,
        trace_hash=tracer.hexdigest() if tracer else None,
        trace_events=tracer.count if tracer else None,
        traced_wall_s=elapsed if tracer else None,
    )


def run_matrix(tasks: Iterable[tuple], workers: int = 1) -> list[RunRecord]:
    """Run every :func:`run_scenario` argument tuple ``(name, seed,
    quick, verify, repeats)`` and return the records in task order,
    whichever worker finished first.

    ``workers > 1`` fans the tasks across a process pool.  Workers
    prefer the ``fork`` start method (cheap on Linux, inherits the
    parent's hash seed) and fall back to ``spawn``; trace hashes are
    hash-seed-independent either way.  Timings from a loaded machine
    are noisier than serial best-of-N, so keep ``workers=1`` for
    baseline regeneration.  ``peak_rss_kb`` is *more* accurate in
    parallel mode: each worker's high-water mark covers only its own
    tasks, while a serial run reports the process-wide monotone maximum.
    """
    tasks = list(tasks)
    if not tasks:
        raise PerfError("nothing to run: no scenario or seed given",
                        bad_input=True)
    for name, _seed, _quick, _verify, repeats in tasks:
        _checked(name, repeats)  # refuse before anything runs or forks
    if workers < 1:
        raise PerfError("workers must be >= 1", bad_input=True)
    if workers == 1:
        return [run_scenario(*task) for task in tasks]
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )
    with context.Pool(processes=min(workers, len(tasks))) as pool:
        return pool.starmap(run_scenario, tasks)


# ---------------------------------------------------------------------------
# View 1: scenarios × one seed — the BENCH_CORE document and its CI gate
# ---------------------------------------------------------------------------


def run_suite(
    scenarios: Iterable[str] | None = None,
    seed: int = DEFAULT_SEED,
    quick: bool = False,
    verify: bool = True,
    repeats: int = 1,
    workers: int = 1,
) -> dict:
    """Run the (selected) scenarios and build the BENCH_CORE document.

    ``scenarios=None`` runs :data:`~repro.perf.scenarios.\
DEFAULT_SCENARIOS` — the gated set BENCH_CORE.json pins — not every
    registered scenario; heavyweight opt-in scenarios must be named.
    """
    names = list(scenarios) if scenarios else list(DEFAULT_SCENARIOS)
    records = run_matrix(
        [(name, seed, quick, verify, repeats) for name in names], workers
    )
    return {
        "schema": SCHEMA,
        "seed": seed,
        "quick": quick,
        "python": platform.python_version(),
        "platform": sys.platform,
        "scenarios": {
            record.scenario: record.to_json() for record in records
        },
    }


def _same_fingerprint_basis(current: dict, baseline: dict) -> bool:
    """Trace hashes are only comparable at equal seed/scale and equal
    Python minor version (hash randomization does not matter, but we
    stay conservative about stdlib RNG/format drift across minors)."""
    if current.get("seed") != baseline.get("seed"):
        return False
    if bool(current.get("quick")) != bool(baseline.get("quick")):
        return False
    mine = str(current.get("python", "")).split(".")[:2]
    theirs = str(baseline.get("python", "")).split(".")[:2]
    return mine == theirs


def compare(
    current: dict,
    baseline: dict,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[str]:
    """Problems in ``current`` relative to ``baseline`` (empty = pass).

    Flags (a) any scenario whose events/sec regressed more than
    ``tolerance``, (b) any scenario whose peak RSS grew more than
    :data:`RSS_TOLERANCE`, (c) scenarios missing from the current run,
    and (d) behavior-fingerprint mismatches when the two documents were
    produced at the same seed/scale on the same Python minor.
    """
    problems: list[str] = []
    fingerprints_comparable = _same_fingerprint_basis(current, baseline)
    for name, base in baseline.get("scenarios", {}).items():
        mine = current.get("scenarios", {}).get(name)
        if mine is None:
            problems.append(f"{name}: missing from current run")
            continue
        base_rate = float(base.get("events_per_sec") or 0.0)
        mine_rate = float(mine.get("events_per_sec") or 0.0)
        if base_rate > 0 and mine_rate < base_rate * (1.0 - tolerance):
            problems.append(
                f"{name}: events/sec regressed {mine_rate:.0f} vs "
                f"{base_rate:.0f} baseline (> {tolerance:.0%} drop)"
            )
        base_rss = base.get("peak_rss_kb")
        mine_rss = mine.get("peak_rss_kb")
        if base_rss and mine_rss \
                and mine_rss > base_rss * (1.0 + RSS_TOLERANCE):
            problems.append(
                f"{name}: peak RSS grew {mine_rss} KiB vs {base_rss} KiB "
                f"baseline (> {RSS_TOLERANCE:.0%} growth)"
            )
        if fingerprints_comparable:
            for field in ("trace_hash", "metrics_digest"):
                if base.get(field) and mine.get(field) \
                        and base[field] != mine[field]:
                    problems.append(
                        f"{name}: {field} changed — behavior differs from "
                        f"baseline (re-baseline if intentional)"
                    )
    return problems


def render_report(doc: dict) -> str:
    """The BENCH_CORE document as an aligned console table."""
    from ..analysis import render_table

    rows = []
    for name, entry in doc["scenarios"].items():
        rows.append([
            name,
            entry["events"],
            entry["events_per_sec"],
            entry["ops"],
            entry["ops_per_sec"],
            entry["wall_s"],
            round(entry["traced_wall_s"] / entry["wall_s"], 2)
            if entry.get("traced_wall_s") and entry["wall_s"] else "-",
            entry["peak_rss_kb"] if entry["peak_rss_kb"] is not None else "-",
            (entry["trace_hash"] or "-")[:12],
        ])
    scale = "quick" if doc.get("quick") else "full"
    return render_table(
        ["scenario", "events", "events/s", "ops", "ops/s", "wall s", "fp x",
         "peak RSS KiB", "trace hash"],
        rows,
        title=f"repro bench — {scale} scale, seed={doc.get('seed')}, "
              f"python {doc.get('python')}",
    )


# ---------------------------------------------------------------------------
# View 2: one scenario × seeds — the sweep and its parallel == serial proof
# ---------------------------------------------------------------------------


def parse_seeds(spec: str) -> list[int]:
    """Parse a seed spec: ``"42"``, ``"1-8"``, or ``"1,2,5-7"``.

    Ranges are inclusive.  Order is preserved; duplicates are rejected
    (a sweep result set is keyed by seed).
    """
    seeds: list[int] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        lo, dash, hi = part.partition("-")
        try:
            if dash:
                start, stop = int(lo), int(hi)
                if stop < start:
                    raise ValueError
                seeds.extend(range(start, stop + 1))
            else:
                seeds.append(int(part))
        except ValueError:
            raise PerfError(f"bad seed spec {part!r} (want N, N-M, or N,M)",
                            bad_input=True) from None
    if not seeds:
        raise PerfError(f"empty seed spec {spec!r}", bad_input=True)
    if len(set(seeds)) != len(seeds):
        raise PerfError(f"duplicate seeds in spec {spec!r}", bad_input=True)
    return seeds


@dataclass(frozen=True)
class SweepReport:
    """A whole sweep: per-seed records plus aggregate throughput."""

    scenario: str
    quick: bool
    workers: int
    results: tuple[RunRecord, ...]
    wall_s: float  # whole-sweep wall clock, all workers included

    @property
    def total_events(self) -> int:
        return sum(result.events for result in self.results)

    @property
    def aggregate_events_per_sec(self) -> float:
        """System throughput: events completed across all workers per
        second of sweep wall clock — the number cross-core fan-out is
        allowed to scale, unlike any single seed's rate."""
        return self.total_events / max(self.wall_s, 1e-9)

    @property
    def serial_wall_s(self) -> float:
        """What the same seeds cost back-to-back (sum of per-seed
        walls) — the denominator of the parallel speedup."""
        return sum(result.wall_s for result in self.results)

    def fingerprints(self) -> frozenset[tuple]:
        return frozenset(result.fingerprint for result in self.results)

    def to_json(self) -> dict:
        return {
            "scenario": self.scenario,
            "quick": self.quick,
            "workers": self.workers,
            "wall_s": round(self.wall_s, 4),
            "aggregate_events_per_sec": round(self.aggregate_events_per_sec, 1),
            "seeds": [result.to_json() for result in self.results],
        }


def run_sweep(
    scenario: str,
    seeds: Iterable[int],
    workers: int = 1,
    quick: bool = True,
) -> SweepReport:
    """Run ``scenario`` at every seed (verified, one timed pass each),
    fanned across ``workers`` processes; results in seed order, so two
    sweeps over the same seeds are directly comparable."""
    start = time.perf_counter()
    records = run_matrix(
        [(scenario, seed, quick, True, 1) for seed in seeds], workers
    )
    return SweepReport(
        scenario=scenario,
        quick=quick,
        workers=workers,
        results=tuple(records),
        wall_s=max(time.perf_counter() - start, 1e-9),
    )


def check_parallel_determinism(
    scenario: str,
    seeds: Sequence[int],
    workers: int,
    quick: bool = True,
) -> tuple[SweepReport, SweepReport]:
    """Run the sweep serially and in parallel; raise unless both
    produce the identical ``(seed, trace_hash, metrics_digest)`` set —
    the property chaos Monte Carlo needs: more seeds checked per
    CPU-hour, with a proof that parallelism changed nothing.

    Returns ``(serial, parallel)`` reports on success so callers can
    show the speedup next to the proof.
    """
    serial = run_sweep(scenario, seeds, workers=1, quick=quick)
    parallel = run_sweep(scenario, seeds, workers=workers, quick=quick)
    mine, theirs = serial.fingerprints(), parallel.fingerprints()
    if mine != theirs:
        diverged = sorted(
            {seed for seed, _h, _d in mine.symmetric_difference(theirs)}
        )
        raise PerfError(
            f"parallel sweep diverged from serial for scenario "
            f"{scenario!r} at seed(s) {diverged} — worker isolation is "
            "broken (shared state leaked across simulations?)"
        )
    return serial, parallel
