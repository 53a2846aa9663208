"""Measurement + comparison machinery behind ``repro bench``.

Responsibilities:

* time each scenario untraced (wall clock, events/sec, ops/sec, peak
  RSS high-water mark),
* re-run it under :class:`~repro.sim.HashingTracer` to fingerprint
  behavior (SHA-256 over the exact JSONL the
  :class:`~repro.sim.Tracer` would dump, plus a digest of
  ``metrics.snapshot()``),
* assemble the ``BENCH_CORE.json`` document and compare two documents
  for the CI regression guard.

The behavior fingerprint is the contract that makes perf PRs safe:
same seed ⇒ same trace hash and metrics digest before and after an
optimization, or the optimization changed semantics.
"""

from __future__ import annotations

import platform
import sys
import time
from dataclasses import dataclass
from typing import Iterable

from ..errors import ReproError
from ..sim.trace import HashingTracer, metrics_digest
from .scenarios import DEFAULT_SCENARIOS, SCENARIOS, ScenarioOutcome

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


class PerfHarnessError(ReproError):
    """A scenario misbehaved (nondeterminism between harness runs)."""


def _peak_rss_kb() -> int | None:
    """Process peak RSS in KiB (monotone high-water mark), or None."""
    if resource is None:  # pragma: no cover - windows fallback
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes; normalize to KiB.
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        peak //= 1024
    return int(peak)


@dataclass
class ScenarioReport:
    """One scenario's measured + fingerprinted result."""

    name: str
    description: str
    events: int
    ops: int
    wall_s: float
    events_per_sec: float
    ops_per_sec: float
    peak_rss_kb: int | None
    metrics_digest: str
    trace_hash: str | None = None
    trace_events: int | None = None

    def to_json(self) -> dict:
        return {
            "description": self.description,
            "events": self.events,
            "ops": self.ops,
            "wall_s": round(self.wall_s, 4),
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
) -> ScenarioReport:
    """Time one scenario; with ``verify``, also fingerprint its behavior.

    ``repeats`` runs the timed (untraced) pass that many times and
    keeps the best wall time — best-of-N is the standard defense
    against scheduler noise on shared machines; every repeat must
    produce the identical metrics snapshot or the scenario is declared
    nondeterministic.

    The verification pass re-runs the scenario under a
    :class:`HashingTracer` and checks the untraced and traced runs
    produced identical metrics snapshots — tracing must never perturb
    a simulation.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    scenario = SCENARIOS[name]
    wall: float | None = None
    digest: str | None = None
    events = 0
    outcome: ScenarioOutcome | None = None
    for _ in range(repeats):
        start = time.perf_counter()
        attempt: ScenarioOutcome = scenario.run(seed, quick, None)
        elapsed = time.perf_counter() - start
        attempt_digest = metrics_digest(attempt.sim.metrics.snapshot())
        if digest is None:
            digest = attempt_digest
            events = attempt.sim.events_processed
        elif (attempt_digest != digest
                or attempt.sim.events_processed != events):
            raise PerfHarnessError(
                f"scenario {name!r} is nondeterministic: repeat run "
                f"diverged from the first (seed={seed})"
            )
        if wall is None or elapsed < wall:
            wall = elapsed
        outcome = attempt
    assert wall is not None and digest is not None and outcome is not None

    trace_hash: str | None = None
    trace_events: int | None = None
    if verify:
        tracer = HashingTracer()
        traced = scenario.run(seed, quick, tracer)
        traced_digest = metrics_digest(traced.sim.metrics.snapshot())
        if traced_digest != digest or traced.sim.events_processed != events:
            raise PerfHarnessError(
                f"scenario {name!r} is nondeterministic: traced re-run "
                f"diverged from the timed run (seed={seed})"
            )
        trace_hash = tracer.hexdigest()
        trace_events = tracer.count

    wall = max(wall, 1e-9)
    return ScenarioReport(
        name=name,
        description=scenario.description,
        events=events,
        ops=outcome.ops,
        wall_s=wall,
        events_per_sec=events / wall,
        ops_per_sec=outcome.ops / wall,
        peak_rss_kb=_peak_rss_kb(),
        metrics_digest=digest,
        trace_hash=trace_hash,
        trace_events=trace_events,
    )


def _run_scenario_task(task: tuple) -> tuple[str, dict]:
    """Pool worker for :func:`run_suite` — module-level so it pickles
    under the ``spawn`` start method."""
    name, seed, quick, verify, repeats = task
    report = run_scenario(
        name, seed=seed, quick=quick, verify=verify, repeats=repeats
    )
    return name, report.to_json()


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

    ``workers > 1`` fans the scenarios across a process pool (one
    scenario per worker, results assembled in request order).  Timings
    from a loaded machine are noisier than serial best-of-N, so keep
    the serial path for baseline regeneration; parallel mode is for
    fast comparative sweeps.  Per-scenario ``peak_rss_kb`` is *more*
    accurate in parallel mode: each worker's high-water mark covers
    only its own scenario, while a serial run reports the process-wide
    monotone maximum.
    """
    names = list(scenarios) if scenarios else list(DEFAULT_SCENARIOS)
    unknown = [name for name in names if name not in SCENARIOS]
    if unknown:
        raise KeyError(f"unknown scenario(s): {', '.join(unknown)}")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    doc: dict = {
        "schema": SCHEMA,
        "seed": seed,
        "quick": quick,
        "python": platform.python_version(),
        "platform": sys.platform,
        "scenarios": {},
    }
    tasks = [(name, seed, quick, verify, repeats) for name in names]
    if workers == 1:
        results = [_run_scenario_task(task) for task in tasks]
    else:
        import multiprocessing

        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        with context.Pool(processes=min(workers, len(tasks))) as pool:
            results = pool.map(_run_scenario_task, tasks)
    for name, entry in results:
        doc["scenarios"][name] = entry
    return doc


# ---------------------------------------------------------------------------
# Comparison (the CI regression guard)
# ---------------------------------------------------------------------------


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
            entry["peak_rss_kb"] if entry["peak_rss_kb"] is not None else "-",
            (entry["trace_hash"] or "-")[:12],
        ])
    scale = "quick" if doc.get("quick") else "full"
    return render_table(
        ["scenario", "events", "events/s", "ops", "ops/s", "wall s",
         "peak RSS KiB", "trace hash"],
        rows,
        title=f"repro bench — {scale} scale, seed={doc.get('seed')}, "
              f"python {doc.get('python')}",
    )
