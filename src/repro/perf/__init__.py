"""Seeded macro benchmarks: one measuring engine, two views.

A small catalogue of macro scenarios (:mod:`repro.perf.scenarios`),
each a deterministic function of one seed, is measured by one engine
(:mod:`repro.perf.harness` — see its docstring for the measuring and
fingerprinting discipline).  ``repro bench`` is its *scenarios × one
seed* view (:func:`run_suite` → the ``BENCH_CORE.json`` document
:func:`compare` gates in CI); ``repro sweep`` is its *one scenario ×
seeds* view (:func:`run_sweep`, :func:`check_parallel_determinism`)::

    python -m repro bench --quick              # CI smoke scale
    python -m repro bench --quick --workers 4  # scenarios across cores
    python -m repro bench --output BENCH_CORE.json
    python -m repro bench --quick --compare BENCH_CORE.json
    python -m repro sweep --scenario quorum_ycsb --seeds 1-8 --workers 4
"""

from .harness import (
    DEFAULT_SEED,
    RSS_TOLERANCE,
    SCHEMA,
    HashingTracer,
    PerfError,
    RunRecord,
    SweepReport,
    check_parallel_determinism,
    compare,
    metrics_digest,
    parse_seeds,
    render_report,
    run_matrix,
    run_scenario,
    run_suite,
    run_sweep,
)
from .scenarios import DEFAULT_SCENARIOS, SCENARIOS, Scenario, ScenarioOutcome

__all__ = [
    "DEFAULT_SCENARIOS",
    "DEFAULT_SEED",
    "RSS_TOLERANCE",
    "SCHEMA",
    "SCENARIOS",
    "HashingTracer",
    "PerfError",
    "RunRecord",
    "Scenario",
    "ScenarioOutcome",
    "SweepReport",
    "check_parallel_determinism",
    "compare",
    "metrics_digest",
    "parse_seeds",
    "render_report",
    "run_matrix",
    "run_scenario",
    "run_suite",
    "run_sweep",
]
