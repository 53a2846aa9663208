"""Each fact has one home, and the docs cannot regrow unnoticed.

DESIGN.md + EXPERIMENTS.md + README.md stay under ``BUDGET`` bytes;
measured numbers are rows of ``BENCH_HISTORY.jsonl``, not prose, and
every row follows one schema (EXPERIMENTS "Methodology"); and every
``FILE.md#anchor`` link between the docs names a heading or an
``<a name>`` of FILE."""

import json
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = ("DESIGN.md", "EXPERIMENTS.md", "README.md")
BUDGET = 120_000
ROW_KEYS = {"pr", "tag", "claim", "workload", "seeds", "pairs", "metrics",
            "layers", "source"}


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _history():
    lines = (ROOT / "BENCH_HISTORY.jsonl").read_text(
        encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines]


def test_the_docs_stay_under_their_budget():
    sizes = {doc: len((ROOT / doc).read_bytes()) for doc in DOCS}
    assert sum(sizes.values()) < BUDGET, sizes


def test_bench_history_rows_follow_the_schema():
    rows = _history()
    benchmark = _benchmark()
    metrics = {metric["name"] for metric in benchmark["end_to_end"]}
    workloads = {workload["name"] for workload in benchmark["workloads"]}
    layer_rows = {metric["name"] for metric in benchmark["per_layer"]}
    assert rows
    for row in rows:
        assert isinstance(row, dict) and set(row) == ROW_KEYS, row
        assert row["workload"] in workloads, row
        assert set(row["metrics"]) <= metrics, row
        for value in row["metrics"].values():
            assert {"parent", "change"} <= set(value), row
        for layer in row["layers"] or {}:
            assert f"{layer}.profile_share" in layer_rows, row
        assert (row["source"] == "driver"
                or row["source"].startswith("EXPERIMENTS.md@")), row
    keys = [(row["pr"], row["workload"], row["source"]) for row in rows]
    assert len(keys) == len(set(keys))
    prs = [row["pr"] for row in rows]
    assert prs == sorted(prs)


def _slug(heading):
    """GitHub's anchor for a heading: markup dropped, lower case, every
    character but a word character, a hyphen or a space dropped, spaces
    to hyphens."""
    text = re.sub(r"<[^>]+>|`", "", heading).strip().lower()
    return re.sub(r"[^\w\- ]", "", text).replace(" ", "-")


def _anchors(doc):
    text = (ROOT / doc).read_text(encoding="utf-8")
    headings = re.findall(r"^#+ (.*)$", text, re.MULTILINE)
    return ({_slug(heading) for heading in headings}
            | set(re.findall(r'<a name="([^"]+)"', text)))


def _links():
    """``(doc, target file, anchor)`` per ``[…](FILE.md#anchor)`` or
    ``[…](#anchor)`` link in the docs."""
    for doc in DOCS:
        text = (ROOT / doc).read_text(encoding="utf-8")
        for target, anchor in re.findall(r"\]\(([\w.]*)#([^)\s]+)\)", text):
            yield doc, target or doc, anchor


def test_doc_anchor_links_resolve():
    links = list(_links())
    assert ("README.md", "EXPERIMENTS.md", "bench_core") in links
    broken = [link for link in links if link[2] not in _anchors(link[1])]
    assert broken == []


def test_the_slug_is_githubs():
    assert _slug("Tracing & metrics") == "tracing--metrics"
    assert _slug("Resilient RPC (`repro.rpc`)") == "resilient-rpc-reprorpc"
    assert _slug("E15 — chaos conformance (`repro chaos`) "
                 '<a name="chaos"></a>') == "e15--chaos-conformance-repro-chaos"
