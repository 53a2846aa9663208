"""Smoke tests: every example runs clean, and the CLI works."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import list_examples, main

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(p.stem for p in EXAMPLES_DIR.glob("*.py"))


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs_clean(name):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / f"{name}.py")],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip()  # said something


def test_cli_lists_all_examples():
    assert set(list_examples()) == set(EXAMPLES)


def test_cli_selftest(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "smoke simulation ok" in out


def test_cli_examples_command(capsys):
    assert main(["examples"]) == 0
    out = capsys.readouterr().out
    assert "quickstart" in out


def test_cli_pbs_command(capsys):
    assert main(["pbs", "--n", "3", "--trials", "500"]) == 0
    out = capsys.readouterr().out
    assert "R=1 W=1" in out and "R=3 W=3 *" in out


def test_cli_run_unknown_example(capsys):
    assert main(["run", "no-such-example"]) == 2
    err = capsys.readouterr().err
    assert "unknown example" in err


def test_cli_run_executes_example(capsys):
    assert main(["run", "shopping_cart"]) == 0
    out = capsys.readouterr().out
    assert "OR-set" in out


def test_cli_protocols_command(capsys):
    from repro.api import registry

    assert main(["protocols"]) == 0
    out = capsys.readouterr().out
    for name in registry.names():
        assert name in out


def test_cli_spectrum_command(capsys):
    assert main(["spectrum", "--rounds", "3"]) == 0
    out = capsys.readouterr().out
    assert "eventual (R=W=1)" in out
    assert "strong (paxos)" in out
    assert "linearizable" in out


@pytest.mark.parametrize("rounds", ["0", "-1"])
def test_cli_spectrum_rejects_rounds_below_one(capsys, rounds):
    assert main(["spectrum", "--rounds", rounds]) == 2
    captured = capsys.readouterr()
    assert "--rounds" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("how", ["flag", "env"])
def test_geo_example_writes_a_trace_the_cli_reads(tmp_path, capsys, how):
    path = str(tmp_path / "geo.trace.jsonl")
    argv, env = [], dict(os.environ)
    if how == "flag":
        argv = ["--trace", path]
    else:
        env["REPRO_TRACE"] = path
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "geo_replication.py"), *argv],
        capture_output=True, text=True, timeout=240, env=env,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert f"trace events to {path}" in result.stdout
    assert pathlib.Path(path).stat().st_size > 0
    assert main(["trace", path, "--summary-only"]) == 0
    assert "msg_send" in capsys.readouterr().out
