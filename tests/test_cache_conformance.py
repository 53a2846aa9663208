"""Cache conformance: every policy x every adapter, checker-verified.

Each cell drives a chaos workload (partitions plan) through a
CachedStore over one backing adapter, records the history at the cache
boundary, heals, settles, and applies the standard checkers.  Claimed
guarantees must PASS; dropped guarantees must surface as documented
WAIVED rows, never as silent skips or FAILs.
"""

import pytest

from repro import cli
from repro.api import registry
from repro.cache import POLICIES
from repro.chaos import (
    FAIL,
    PASS,
    UNKNOWN,
    WAIVED,
    CellReport,
    format_reports,
    run_cell,
    run_grid,
)
from repro.replication.multipaxos import PaxosClient

SESSION_GUARANTEES = ("ryw", "mr", "mw", "wfr")

#: The cache grid's cell size (what CI's cache grid runs).
CELL = dict(nodes=3, clients=2, ops=60, records=16)
#: Every protocol a cache layer can wrap: all but the cache itself.
CACHEABLE = [name for name in registry.names() if name != "cached"]
#: ``CELL`` as ``repro chaos`` flags.
CELL_FLAGS = ["--nodes", "3", "--clients", "2", "--records", "16"]


def stack(adapter, policy):
    return f"cached[{policy}]:{adapter}" if policy else adapter


def run_cache_cell(adapter, policy, **knobs) -> CellReport:
    return run_cell(stack(adapter, policy), **{**CELL, **knobs})


def assert_cell_conforms(report: CellReport) -> None:
    caps = registry.get("cached").capabilities
    assert report.fingerprint, "every cell must carry a trace fingerprint"
    assert report.ops_ok > 0, "the workload must make progress"
    for check in report.results:
        assert check.status != FAIL, (
            f"{report.stack}: {check.guarantee} FAILED "
            f"({check.detail})"
        )
    # Every session guarantee is accounted for on every cell — either
    # claimed (PASS / vacuous UNKNOWN) or explained (WAIVED / UNKNOWN
    # with a reason), never missing.
    for guarantee in SESSION_GUARANTEES:
        check = report.check(guarantee)
        assert check is not None, (
            f"{report.stack}: no verdict for {guarantee}"
        )
        if check.claimed and check.status != WAIVED:
            assert check.status in (PASS, UNKNOWN)
        else:
            # A documented waiver wins over a claim (pileus ryw/mr).
            assert check.status in (WAIVED, UNKNOWN)
            assert check.detail, "unclaimed guarantees need a reason"
    staleness = report.check("bounded-staleness")
    assert staleness is not None
    assert staleness.status in (PASS, UNKNOWN)
    convergence = report.check("convergence")
    assert convergence is not None
    assert convergence.claimed  # every store claims it


@pytest.mark.parametrize("adapter", CACHEABLE)
def test_grid_cell_conforms_per_adapter(adapter):
    for policy in POLICIES:
        report = run_cache_cell(adapter, policy, seed=42,
                                plan="partitions", ops=40)
        assert_cell_conforms(report)
        assert report.plan == "partitions"


@pytest.mark.parametrize("adapter", ("quorum", "causal", "timeline"))
def test_uncached_baseline_row(adapter):
    report = run_cache_cell(adapter, None, seed=42,
                            plan="partitions", ops=40)
    assert report.hit_rate == 0.0
    for check in report.results:
        assert check.status != FAIL
    # The bare adapter's own claims must hold at this tuning — the
    # chaos runner already enforces this; the baseline row re-checks
    # it through the cache harness plumbing.
    caps = registry.get(adapter).capabilities
    for guarantee in caps.session_guarantees:
        check = report.check(guarantee)
        assert check is not None and check.status in (PASS, UNKNOWN)


def test_claimed_guarantees_survive_the_cache():
    """causal claims all four session guarantees; write_through must
    carry ryw+mw through the cache boundary and PASS them."""
    report = run_cache_cell("causal", "write_through", seed=42,
                            plan="partitions", ops=60)
    ryw = report.check("ryw")
    mw = report.check("mw")
    assert ryw.claimed and ryw.status in (PASS, UNKNOWN)
    assert mw.claimed and mw.status in (PASS, UNKNOWN)
    # mr and wfr were dropped by the policy: documented waivers.
    assert report.check("mr").status == WAIVED
    assert report.check("wfr").status == WAIVED
    assert "TTL" in report.check("mr").detail


def test_ttl_is_the_declared_staleness_bound():
    """Over a fresh-reading backing store the capability bound is
    ttl (+ flush lag) and the checker verifies it on the recorded
    history."""
    report = run_cache_cell("quorum", "read_through", seed=42,
                            plan="partitions", ops=60, ttl=60.0)
    staleness = report.check("bounded-staleness")
    assert staleness.status == PASS
    assert "t-visibility" in staleness.detail

    wb = run_cache_cell("quorum", "write_behind", seed=42,
                        plan="partitions", ops=60, ttl=60.0,
                        flush_delay=10.0)
    assert wb.check("bounded-staleness").status == PASS

    # A weak backing read can exceed any TTL: no bound is declared,
    # and the cell says so rather than claiming a vacuous PASS.
    weak = run_cache_cell("causal", "read_through", seed=42,
                          plan="partitions", ops=60)
    assert weak.check("bounded-staleness").status == UNKNOWN
    assert "no declared bound" in weak.check("bounded-staleness").detail


def test_stale_by_tier_attributes_staleness():
    report = run_cache_cell("quorum", "read_through", seed=42,
                            plan="partitions", ops=60)
    # Both tiers served reads somewhere in the run.
    assert "cache" in report.stale_by_tier
    assert "store" in report.stale_by_tier
    for fraction in report.stale_by_tier.values():
        assert 0.0 <= fraction <= 1.0


def test_grid_runner_and_formatter():
    stacks = [stack(adapter, policy) for adapter in ("quorum", "causal")
              for policy in ("cache_aside", "write_behind")]
    reports = run_grid(stacks, **{**CELL, "ops": 30}, seed=42,
                       plan="partitions")
    assert [r.stack for r in reports] == stacks
    text = format_reports(reports)
    assert "conformance" in text
    assert "PASS: 4 cell(s) conform" in text
    assert "bounded-staleness" in text


def test_cell_is_deterministic_per_seed():
    first = run_cache_cell("quorum", "write_behind", seed=7,
                           plan="partitions", ops=40)
    second = run_cache_cell("quorum", "write_behind", seed=7,
                            plan="partitions", ops=40)
    assert first.fingerprint == second.fingerprint
    assert first.hit_rate == second.hit_rate


def test_grid_defaults_never_wrap_the_cache_adapter_itself():
    assert "cached" in registry.names()
    # The default grid runs every protocol bare, the cache entry too.
    assert [r.stack for r in run_grid(ops=5, plan=None)] == registry.names()
    with pytest.raises(ValueError, match="a cache over 'cached'"):
        run_cell("cached[write_through]:cached", ops=10)
    with pytest.raises(ValueError, match="unknown layer 'cached.write_"):
        run_cell("cached[write_around]:quorum", ops=10)


def test_write_behind_survives_a_flush_refused_at_issue(monkeypatch):
    """While its leader is crashed, multipaxos refuses a flush at issue
    with a future already failed with NotLeaderError; the flush must
    take the retry path and drain after heal + settle."""
    refused = []
    no_leader = PaxosClient._no_leader

    def counting(client):
        if client.session == "cache-flusher":
            refused.append(client.sim.now)
        return no_leader(client)

    monkeypatch.setattr(PaxosClient, "_no_leader", counting)
    report = run_cache_cell("multipaxos", "write_behind", seed=42,
                            plan="crashes", ops=40)
    assert refused
    assert report.ok
    assert report.check("convergence").status == PASS
    assert report.ops_ok > 0


def test_cli_cache_grades_like_chaos_and_validates_its_grid(capsys):
    # The pileus cell the two old graders disagreed on: exit 0 now.
    assert cli.main(["chaos", "--stack", "pileus", "--plan", "partitions",
                     "--seed", "1", *CELL_FLAGS, "--ops", "60"]) == 0
    assert "WAIVED" in capsys.readouterr().out
    assert cli.main(["chaos", "--stack", "cached[write_behind]:multipaxos",
                     "--plan", "crashes", "--seed", "42", *CELL_FLAGS,
                     "--ops", "40"]) == 0
    # A cache over the cache adapter is not a grid cell.
    assert cli.main(["chaos", "--stack", "cached[write_through]:cached"]) == 2
    err = capsys.readouterr().err
    assert "a cache over 'cached'" in err
    # One --plan for every stack, random included.
    assert cli.main(["chaos", "--stack", "cached[write_through]:quorum",
                     "--plan", "random", *CELL_FLAGS, "--ops", "20"]) == 0
