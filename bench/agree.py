"""Do two result sets of the same code agree?

    python3 bench/agree.py A.json B.json

``A`` and ``B`` are files written by ``bench/run.py --out``.  Every
end-to-end metric must be within its ``BENCHMARK.json`` bound of the
other run, and everything that repeats exactly per seed — counters,
ratios of counters, simulated-time outputs, digests, hashes and
verdicts — must be equal.  Host-time per-layer metrics have no bound
and are listed without a verdict.  One row per (workload, metric);
exit code 1 on any disagreement.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _show(value: object) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def compare(a: dict, b: dict, bounds: dict[str, float]) -> tuple[list[str], int]:
    """Rows to print and the number of disagreements."""
    rows: list[str] = []
    bad = 0

    def row(workload: str, name: str, x: object, y: object, verdict: str) -> None:
        nonlocal bad
        bad += verdict.startswith("DISAGREE")
        rows.append(f"{workload:<18} {name:<36} {_show(x):>22} "
                    f"{_show(y):>22}  {verdict}")

    if a.get("seed") != b.get("seed") or a.get("smoke") != b.get("smoke"):
        row("*", "seed/scale", (a.get("seed"), a.get("smoke")),
            (b.get("seed"), b.get("smoke")), "DISAGREE: not the same inputs")
    for workload in sorted(set(a["workloads"]) | set(b["workloads"])):
        left = a["workloads"].get(workload)
        right = b["workloads"].get(workload)
        if not left or not right:
            row(workload, "(result)", bool(left), bool(right),
                "DISAGREE: missing on one side")
            continue
        for key in ("correct", "attempted", "failed"):
            x, y = left.get(key), right.get(key)
            row(workload, key, x, y, "equal" if x == y else "DISAGREE: exact")
        for key in sorted(set(left.get("exact", {})) | set(right.get("exact", {}))):
            x, y = left["exact"].get(key), right["exact"].get(key)
            shown = (str(x)[:12], str(y)[:12]) if isinstance(x, str) else (x, y)
            row(workload, key, *shown, "equal" if x == y else "DISAGREE: exact")
        for name, bound in bounds.items():
            x = left.get("end_to_end", {}).get(name, {}).get("value")
            y = right.get("end_to_end", {}).get(name, {}).get("value")
            if x is None or y is None:
                row(workload, name, x, y, "DISAGREE: missing")
                continue
            apart = abs(x - y) / min(abs(x), abs(y))
            row(workload, name, x, y,
                f"{apart:.1%} apart, bound {bound:.0%}" if apart <= bound
                else f"DISAGREE: {apart:.1%} apart, bound {bound:.0%}")
        layers_a, layers_b = left.get("per_layer", {}), right.get("per_layer", {})
        for name in sorted(set(layers_a) | set(layers_b)):
            x = layers_a.get(name, {}).get("value")
            y = layers_b.get(name, {}).get("value")
            if metrics.KIND.get(name) == "time":
                row(workload, name, x, y, "host time, no bound")
            else:
                row(workload, name, x, y,
                    "equal" if x == y else "DISAGREE: exact")
    return rows, bad


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    rows, bad = compare(_load(argv[0]), _load(argv[1]), bounds)
    print("\n".join(rows))
    print(f"{len(rows)} rows, {bad} disagreement(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
