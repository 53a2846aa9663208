"""Multiprocess seed sweeps (``repro sweep``).

One simulation is single-threaded by construction — determinism comes
from a totally ordered event loop — so the way to "run faster than the
hardware allows" per seed is to run *many seeds at once*.  This module
fans a scenario's seeds across a ``multiprocessing`` pool, one fully
independent simulator per worker, and proves the fan-out is safe: every
worker returns the seed's behavior fingerprint ``(trace_hash,
metrics_digest)``, and :func:`run_sweep` with ``check_determinism``
asserts the parallel run produced the identical fingerprint set as a
serial run of the same seeds.  That is the property chaos Monte Carlo
needs — more seeds checked per CPU-hour, with a proof that parallelism
changed nothing but the wall clock.

Each worker runs the seed twice, exactly like ``repro bench`` does:
once untraced for an honest wall-clock measurement, once under
:class:`~repro.sim.HashingTracer` for the fingerprint, and
cross-checks the two runs' metrics digests (tracing must never perturb
a simulation).

Workers prefer the ``fork`` start method (cheap on Linux, inherits the
parent's hash seed) and fall back to ``spawn`` elsewhere; trace hashes
are hash-seed-independent either way — the committed BENCH_CORE
fingerprints already prove that across CI runs.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..errors import ReproError
from ..sim.trace import HashingTracer, metrics_digest
from .scenarios import SCENARIOS


class SweepError(ReproError):
    """A sweep misbehaved: unknown scenario, bad seed spec, or a
    parallel run whose fingerprints diverged from the serial run."""


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
            raise SweepError(f"bad seed spec {part!r} (want N, N-M, or N,M)")
    if not seeds:
        raise SweepError(f"empty seed spec {spec!r}")
    if len(set(seeds)) != len(seeds):
        raise SweepError(f"duplicate seeds in spec {spec!r}")
    return seeds


@dataclass(frozen=True)
class SeedResult:
    """One seed's measured + fingerprinted outcome."""

    seed: int
    events: int
    ops: int
    wall_s: float
    events_per_sec: float
    trace_hash: str
    trace_events: int
    metrics_digest: str

    @property
    def fingerprint(self) -> tuple[int, str, str]:
        return (self.seed, self.trace_hash, self.metrics_digest)

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "events": self.events,
            "ops": self.ops,
            "wall_s": round(self.wall_s, 4),
            "events_per_sec": round(self.events_per_sec, 1),
            "trace_hash": self.trace_hash,
            "trace_events": self.trace_events,
            "metrics_digest": self.metrics_digest,
        }


@dataclass(frozen=True)
class SweepReport:
    """A whole sweep: per-seed results plus aggregate throughput."""

    scenario: str
    quick: bool
    workers: int
    results: tuple[SeedResult, ...]
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

    def fingerprints(self) -> frozenset[tuple[int, str, str]]:
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


def _run_seed(task: tuple[str, int, bool]) -> SeedResult:
    """Worker body: measure + fingerprint one (scenario, seed).

    Module-level so it pickles under the ``spawn`` start method.
    """
    name, seed, quick = task
    scenario = SCENARIOS[name]
    start = time.perf_counter()
    timed = scenario.run(seed, quick, None)
    wall = max(time.perf_counter() - start, 1e-9)
    digest = metrics_digest(timed.sim.metrics.snapshot())
    events = timed.sim.events_processed

    tracer = HashingTracer()
    traced = scenario.run(seed, quick, tracer)
    traced_digest = metrics_digest(traced.sim.metrics.snapshot())
    if traced_digest != digest or traced.sim.events_processed != events:
        raise SweepError(
            f"scenario {name!r} is nondeterministic at seed {seed}: "
            "traced re-run diverged from the timed run"
        )
    return SeedResult(
        seed=seed,
        events=events,
        ops=timed.ops,
        wall_s=wall,
        events_per_sec=events / wall,
        trace_hash=tracer.hexdigest(),
        trace_events=tracer.count,
        metrics_digest=digest,
    )


def _pool_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def run_sweep(
    scenario: str,
    seeds: Sequence[int] | Iterable[int],
    workers: int = 1,
    quick: bool = True,
) -> SweepReport:
    """Run ``scenario`` at every seed, fanned across ``workers``
    processes (``workers <= 1`` runs serially in-process).

    Results come back in seed order regardless of which worker finished
    first, so two sweeps over the same seeds are directly comparable.
    """
    if scenario not in SCENARIOS:
        raise SweepError(
            f"unknown scenario {scenario!r} "
            f"(have: {', '.join(sorted(SCENARIOS))})"
        )
    seed_list = list(seeds)
    if not seed_list:
        raise SweepError("no seeds to sweep")
    if workers < 1:
        raise SweepError("workers must be >= 1")
    tasks = [(scenario, seed, quick) for seed in seed_list]
    start = time.perf_counter()
    if workers == 1:
        results = [_run_seed(task) for task in tasks]
    else:
        context = _pool_context()
        with context.Pool(processes=min(workers, len(tasks))) as pool:
            results = pool.map(_run_seed, tasks)
    wall = max(time.perf_counter() - start, 1e-9)
    return SweepReport(
        scenario=scenario,
        quick=quick,
        workers=workers,
        results=tuple(results),
        wall_s=wall,
    )


def check_parallel_determinism(
    scenario: str,
    seeds: Sequence[int],
    workers: int,
    quick: bool = True,
) -> tuple[SweepReport, SweepReport]:
    """Run the sweep serially and in parallel; raise unless both
    produce the identical ``(seed, trace_hash, metrics_digest)`` set.

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
        raise SweepError(
            f"parallel sweep diverged from serial for scenario "
            f"{scenario!r} at seed(s) {diverged} — worker isolation is "
            "broken (shared state leaked across simulations?)"
        )
    return serial, parallel
