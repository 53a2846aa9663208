"""The sweep view of the ``repro.perf`` engine (``repro sweep``): one
scenario × many seeds over the engine's process pool.

Pool-backed sweeps here use the smallest quick scenario
(``crdt_merge_storm``) so the suite stays fast; the property under
test is the contract, not throughput: a parallel sweep must produce
the identical per-seed ``(trace_hash, metrics_digest)`` fingerprint
set as a serial sweep of the same seeds.
"""

import json

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.perf import (
    PerfError,
    check_parallel_determinism,
    parse_seeds,
    run_sweep,
)

SCENARIO = "crdt_merge_storm"


# ---------------------------------------------------------------------------
# Seed-spec parsing
# ---------------------------------------------------------------------------


def test_parse_seeds_single():
    assert parse_seeds("42") == [42]


def test_parse_seeds_range_inclusive():
    assert parse_seeds("1-8") == [1, 2, 3, 4, 5, 6, 7, 8]


def test_parse_seeds_mixed_list():
    assert parse_seeds("1, 2, 5-7") == [1, 2, 5, 6, 7]


@pytest.mark.parametrize("spec", ["", ",", "x", "3-1", "1-2-3", "1,1", "2-4,3"])
def test_parse_seeds_rejects_garbage(spec):
    with pytest.raises(PerfError) as refused:
        parse_seeds(spec)
    assert refused.value.bad_input


# ---------------------------------------------------------------------------
# Sweeping
# ---------------------------------------------------------------------------


def test_serial_sweep_results_in_seed_order():
    report = run_sweep(SCENARIO, [3, 1, 2], workers=1, quick=True)
    assert [r.seed for r in report.results] == [3, 1, 2]
    for result in report.results:
        assert result.events > 0
        assert result.events_per_sec > 0
        assert len(result.trace_hash) == 64
        assert len(result.metrics_digest) == 64
        assert result.trace_events > 0


def test_parallel_sweep_matches_serial_fingerprints():
    seeds = [1, 2, 3, 4]
    serial = run_sweep(SCENARIO, seeds, workers=1, quick=True)
    parallel = run_sweep(SCENARIO, seeds, workers=2, quick=True)
    assert serial.fingerprints() == parallel.fingerprints()
    assert serial.total_events == parallel.total_events


def test_check_parallel_determinism_passes():
    serial, parallel = check_parallel_determinism(
        SCENARIO, [1, 2], workers=2, quick=True
    )
    assert serial.fingerprints() == parallel.fingerprints()
    assert parallel.workers == 2


def test_sweep_report_json_roundtrips():
    report = run_sweep(SCENARIO, [1, 2], workers=1, quick=True)
    doc = report.to_json()
    assert json.loads(json.dumps(doc)) == doc
    assert [entry["seed"] for entry in doc["seeds"]] == [1, 2]
    assert doc["scenario"] == SCENARIO


def test_sweep_rejects_unknown_scenario():
    with pytest.raises(PerfError, match="unknown scenario"):
        run_sweep("nope", [1], workers=1)


def test_sweep_rejects_empty_seeds_and_bad_workers():
    with pytest.raises(PerfError, match="nothing to run"):
        run_sweep(SCENARIO, [], workers=1)
    with pytest.raises(PerfError, match="workers"):
        run_sweep(SCENARIO, [1], workers=0)


def test_sweep_error_is_repro_error():
    # What ``cmd_sweep`` relies on to turn any refusal into one line.
    with pytest.raises(ReproError):
        parse_seeds("8-1")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_sweep_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "sweep.json"
    code = main([
        "sweep", "--scenario", SCENARIO, "--seeds", "1-2", "--quick",
        "--output", str(out_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert SCENARIO in out
    assert "aggregate:" in out
    doc = json.loads(out_path.read_text())
    assert len(doc["seeds"]) == 2


def test_cli_sweep_check_determinism(capsys):
    code = main([
        "sweep", "--scenario", SCENARIO, "--seeds", "1-2", "--quick",
        "--workers", "2", "--check-determinism",
    ])
    assert code == 0
    assert "parallel fingerprint set == serial" in capsys.readouterr().out


def test_cli_sweep_bad_seed_spec_exits_nonzero(capsys):
    assert main(["sweep", "--scenario", SCENARIO, "--seeds", "8-1"]) == 2
    assert "sweep failed" in capsys.readouterr().err
