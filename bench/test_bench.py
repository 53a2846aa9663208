"""Tests of the benchmark itself (``python -m pytest bench -q``; not
part of the repo's tier-1 suite).  Everything runs at ``--smoke`` scale."""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)

import agree  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def _run(*args: str, cwd: str = ROOT, script: str = RUN):
    return subprocess.run(
        [sys.executable, script, *args], cwd=cwd, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONHASHSEED="0"), check=False, timeout=120,
    )


def test_benchmark_json_carries_the_metric_tables():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["per_layer"]] == [
        row[:3] for row in metrics.PER_LAYER]
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in BENCHMARK[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for key in ("end_to_end", "per_layer")
               for m in BENCHMARK[key])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in BENCHMARK["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    assert len(BENCHMARK["per_layer"]) <= 128


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric(workload, trace):
    done = _run("--workload", workload, "--smoke", "--seconds", "0",
                "--seed", "7", "--trace", str(trace))
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # ``correct`` covers: equal digests across repeats, the traced
    # digest equal to the untraced one, and every expected verdict.
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    table = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in table}
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())
    if trace:
        assert result["metrics"]["bench.span_coverage"]["value"] >= 0.95
        _check_span_trees(os.path.join(HERE, "out", f"{workload}.spans.jsonl"))


def _check_span_trees(path: str) -> None:
    with open(path, encoding="utf-8") as fh:
        spans = {row["id"]: row for row in map(json.loads, fh)}
    assert spans
    children_s: dict[int, float] = {}
    tree_self_s: dict[int, float] = {}
    for span in spans.values():
        assert span["end"] >= span["start"]
        parent = span["parent"]
        if parent is None:
            assert span["root"] == span["id"]
            continue
        # The kept set is the first spans started, so ancestors are kept.
        outer = spans[parent]
        assert outer["start"] <= span["start"] and span["end"] <= outer["end"]
        assert span["root"] == outer["root"]
        children_s[parent] = children_s.get(parent, 0.0) + (
            span["end"] - span["start"])
    for span in spans.values():
        self_s = span["end"] - span["start"] - children_s.get(span["id"], 0.0)
        assert self_s >= -1e-9
        tree_self_s[span["root"]] = tree_self_s.get(span["root"], 0.0) + self_s
    for root, self_s in tree_self_s.items():
        duration = spans[root]["end"] - spans[root]["start"]
        assert self_s == pytest.approx(duration, rel=0.01, abs=1e-6)


def test_wrong_expected_verdict_fails_the_run(monkeypatch, capsys):
    honest = workloads.WORKLOADS["causal_checked"]
    name, group, _expected, fn = honest.checks[0]
    lying = dataclasses.replace(
        honest, checks=((name, group, False, fn), *honest.checks[1:]))
    monkeypatch.setitem(workloads.WORKLOADS, "causal_checked", lying)
    argv = ["--workload", "causal_checked", "--smoke", "--seconds", "0"]
    assert run.main(argv) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False
    monkeypatch.setitem(workloads.WORKLOADS, "causal_checked", honest)
    assert run.main(argv) == 0


def test_no_result_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("--workload", "quorum_closed", "--seconds", "0",
                cwd=str(tmp_path), script=str(tmp_path / "bench" / "run.py"))
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_agree_flags_only_real_disagreement():
    bounds = {"ops_per_s": 0.10}
    def result(ops_per_s, msgs, digest="abc"):
        return {"seed": 42, "smoke": True, "workloads": {"w": {
            "correct": True, "attempted": 10, "failed": 0,
            "exact": {"metrics_digest": digest},
            "end_to_end": {"ops_per_s": {"value": ops_per_s, "unit": "ops/s"}},
            "per_layer": {
                "network.msgs_per_op": {"value": msgs, "unit": "1/op"},
                "network.send_us": {"value": ops_per_s / 7, "unit": "us"},
            }}}}
    assert agree.compare(result(100.0, 8.0), result(105.0, 8.0), bounds)[1] == 0
    assert agree.compare(result(100.0, 8.0), result(120.0, 8.0), bounds)[1] == 1
    assert agree.compare(result(100.0, 8.0), result(100.0, 8.5), bounds)[1] == 1
    assert agree.compare(result(100.0, 8.0), result(100.0, 8.0, "abd"),
                         bounds)[1] == 1
