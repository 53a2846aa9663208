"""E19: the cache tier's hit-rate x staleness x guarantee trade-off.

Claim: a cache is just another rung on the paper's staleness spectrum
— the policy that decides how writes meet the cache decides which
session guarantees survive the boundary and how much staleness hits
absorb.  Each cell wraps one backing adapter in a
:class:`repro.cache.CachedStore` under one policy, drives a read-heavy
YCSB-B workload with the history recorded at the cache boundary, and
lets the *existing* checkers deliver the verdicts: claimed guarantees
must PASS, dropped ones surface as documented waivers, and per-tier
staleness attribution shows the staleness coming from hits, not the
backing store.

The ordering the table must reproduce, per adapter:

* ``read_through`` (writes bypass the cache) is the stalest policy;
* ``write_through``/``write_behind`` hits serve the newest acked
  write — stale fraction at or near the uncached baseline;
* all residual staleness attributes to the ``cache`` tier.
"""

import pytest

from common import emit
from repro.analysis import render_table
from repro.chaos import run_cell

ADAPTERS = ("quorum", "causal", "timeline")
POLICIES = ("uncached", "cache_aside", "read_through", "write_through",
            "write_behind")
CELL_KNOBS = dict(seed=42, plan=None, nodes=3, ops=120, preset="B",
                  clients=3, records=12, ttl=60.0, flush_delay=10.0)


def stack(adapter, policy):
    # "uncached" is the bare adapter: the same cell with no cache layer.
    return adapter if policy == "uncached" else f"cached[{policy}]:{adapter}"


def run_adapter_rows(adapter):
    return {policy: run_cell(stack(adapter, policy), **CELL_KNOBS)
            for policy in POLICIES}


def verdict_cell(report, guarantee):
    check = report.check(guarantee)
    if check is None:
        return "-"
    mark = {"pass": "PASS", "fail": "FAIL", "waived": "waived",
            "unknown": "?"}[check.status]
    return mark


@pytest.mark.parametrize("adapter", ADAPTERS)
def test_e19_cache_tradeoff(adapter, benchmark, capsys):
    cells = run_adapter_rows(adapter)
    rows = []
    for policy, report in cells.items():
        rows.append([
            policy,
            f"{report.hit_rate:.0%}",
            f"{report.stale_fraction:.1%}",
            f"{report.stale_by_tier.get('cache', 0.0):.1%}",
            f"{report.stale_by_tier.get('store', 0.0):.1%}",
            verdict_cell(report, "ryw"),
            verdict_cell(report, "mr"),
            verdict_cell(report, "mw"),
            verdict_cell(report, "wfr"),
            verdict_cell(report, "bounded-staleness"),
        ])
    emit(capsys, render_table(
        ["policy", "hit", "stale", "stale@cache", "stale@store",
         "ryw", "mr", "mw", "wfr", "t-bound"],
        rows,
        title=f"E19: cache policies over {adapter} — YCSB-B, "
              f"ttl={CELL_KNOBS['ttl']:g}ms, history at the cache "
              f"boundary",
    ))

    # Every cell's verdicts come from the standard checkers and no
    # claimed guarantee may FAIL.
    for policy, report in cells.items():
        assert report.ok, (
            f"{adapter}/{policy}: "
            f"{[(c.guarantee, c.detail) for c in report.results if c.status == 'fail']}"
        )
        for check in report.results:
            if check.claimed:
                assert check.status in ("pass", "unknown")

    # The cache works: every cached policy hits on this read-heavy mix.
    for policy in POLICIES[1:]:
        assert cells[policy].hit_rate > 0.3, (policy, cells[policy].hit_rate)
    assert cells["uncached"].hit_rate == 0.0

    # The staleness spectrum orders as the policies predict.
    assert (cells["read_through"].stale_fraction
            >= cells["write_through"].stale_fraction)
    assert (cells["read_through"].stale_fraction
            >= cells["uncached"].stale_fraction)

    # Whatever staleness showed up came from cache hits, not the
    # backing store's own reads.
    for policy in POLICIES[1:]:
        report = cells[policy]
        assert report.stale_by_tier.get("store", 0.0) <= \
            report.stale_by_tier.get("cache", 0.0) + 1e-9

    benchmark.pedantic(
        run_cell, args=(stack(adapter, "write_through"),),
        kwargs=CELL_KNOBS, rounds=2, iterations=1,
    )


def test_e19_staleness_is_ttl_bounded(capsys):
    """Tightening the TTL tightens observed staleness: the declared
    bound (ttl + flush lag + op timeout) holds at every setting over a
    fresh-reading backing store."""
    rows = []
    for ttl in (20.0, 60.0, 200.0):
        knobs = dict(CELL_KNOBS)
        knobs["ttl"] = ttl
        report = run_cell(stack("quorum", "read_through"), **knobs)
        staleness = report.check("bounded-staleness")
        assert staleness is not None and staleness.status == "pass", ttl
        rows.append([
            f"{ttl:g}", f"{report.hit_rate:.0%}",
            f"{report.stale_fraction:.1%}", staleness.detail,
        ])
    emit(capsys, render_table(
        ["ttl ms", "hit", "stale", "checker"],
        rows,
        title="E19: read-through staleness vs TTL over quorum "
              "(declared bound checker-verified)",
    ))


def test_e19_determinism():
    """The E19 cells fingerprint identically run to run — the table
    is a pure function of the seed."""
    first = run_cell(stack("causal", "read_through"), **CELL_KNOBS)
    second = run_cell(stack("causal", "read_through"), **CELL_KNOBS)
    assert first.fingerprint == second.fingerprint
