"""Chaos conformance: bare-cell verdicts, edge cases, seed sweep, txn invariants."""

import dataclasses

import pytest

from repro.api import registry
from repro.sla.pileus import PileusStore
from repro.chaos import (
    FAIL,
    PASS,
    UNKNOWN,
    WAIVED,
    format_reports,
    run_cell,
    run_grid,
)
from repro.checkers import check_convergence, check_linearizability
from repro.errors import InvariantViolation
from repro.histories import History
from repro.sim import FixedLatency, Network, Simulator, spawn
from repro.txn import EscrowCounter, RedBlueBank


def statuses(report):
    return {r.guarantee: r.status for r in report.results}


# ----------------------------------------------------------------------
# Conformance sweep (satellite: seeds trimmed to 3 for tier-1)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", [1, 2, 3])
def test_seed_sweep_every_protocol_conforms(seed):
    reports = run_grid(seed=seed, plan="partitions", ops=80)
    for report in reports:
        failed = [(r.guarantee, r.detail) for r in report.results
                  if r.status == FAIL]
        assert report.ok, (report.stack, failed)


def test_runner_fingerprints_are_reproducible():
    def run():
        return run_grid(["quorum", "causal"], seed=9, plan="mixed", ops=60)

    first = {r.stack: r.fingerprint for r in run()}
    second = {r.stack: r.fingerprint for r in run()}
    assert first == second


# ----------------------------------------------------------------------
# Edge cases (satellite: no crash, sensible verdicts)
# ----------------------------------------------------------------------

def test_empty_workload_is_vacuous_not_a_failure():
    report = run_cell("multipaxos", seed=1, plan="partitions", ops=0)
    verdicts = statuses(report)
    assert verdicts["linearizable"] == UNKNOWN
    assert verdicts["convergence"] in (PASS, UNKNOWN)
    assert report.ok


def test_single_op_history_checks_cleanly():
    reports = run_grid(["causal", "multipaxos"], seed=1, plan="partitions",
                       ops=1)
    for report in reports:
        assert report.ok, statuses(report)


def test_checkers_accept_empty_history_directly():
    empty = History([])
    assert check_linearizability(empty).ok
    assert check_linearizability(empty).checked_ops == 0
    assert check_convergence({}).ok


def test_waivers_surface_as_waived_rows_with_reason():
    report = run_cell("pileus", seed=42, plan="partitions", ops=40)
    waived = {r.guarantee: r for r in report.results if r.status == WAIVED}
    assert set(waived) == {"ryw", "mr"}
    for row in waived.values():
        assert row.detail  # the documented reason, never a silent skip
    assert report.ok


#: The cell on which the two parent graders disagreed about pileus.
PILEUS_DRIFT_CELL = dict(plan="partitions", seed=1, nodes=3, clients=2,
                         ops=60, records=16)


def test_waiver_wins_over_a_claim_pileus_ryw_regression():
    """pileus claims ryw and documents a waiver for it; on this cell
    the guarantee is violated.  The old cache grader said FAIL, the
    chaos grader WAIVED — the one rule says WAIVED, measured."""
    report = run_cell("pileus", **PILEUS_DRIFT_CELL)
    ryw = report.check("ryw")
    assert ryw.status == WAIVED and ryw.claimed
    assert registry.get("pileus").capabilities.waiver_for("ryw") in ryw.detail
    assert ryw.detail.endswith("(violated on this run)")
    assert report.ok


@pytest.mark.parametrize("policy", [None, "write_through"])
def test_unwaived_pileus_fails_ryw_bare_and_through_the_cache(
        monkeypatch, policy):
    """Checker-of-the-checker: without its waiver the same cell FAILs,
    so the waiver is needed — and a claim fails through the cache tier
    by the same rule as on the bare adapter."""
    caps = dataclasses.replace(PileusStore.capabilities,
                               name="pileus_unwaived", chaos_waivers=())

    class UnwaivedPileus(PileusStore):
        capabilities = caps

    monkeypatch.setitem(
        registry._REGISTRY, "pileus_unwaived",
        registry.StoreSpec("pileus_unwaived", caps, UnwaivedPileus))
    cache = f"cached[{policy}]:" if policy else ""
    report = run_cell(cache + "pileus_unwaived", **PILEUS_DRIFT_CELL)
    ryw = report.check("ryw")
    assert ryw.claimed and ryw.status == FAIL, ryw
    assert not report.ok
    # Same run as the registered adapter: only the grading differs.
    assert report.fingerprint == \
        run_cell(cache + "pileus", **PILEUS_DRIFT_CELL).fingerprint


def test_format_reports_renders_verdict_table():
    reports = run_grid(["pileus"], seed=42, plan="partitions", ops=40)
    text = format_reports(reports)
    assert "pileus" in text
    assert "WAIVED" in text
    assert text.strip().endswith("cell(s) conform")


def test_multipaxos_under_crashes_completes_at_least_half_its_ops():
    """A client that finds no leader starts an election, so the group
    is re-elected after the nemesis crashes its leader: at seed 42 the
    cell completes 114 of 120 ops (15 without re-election)."""
    report = run_cell("multipaxos", seed=42, plan="crashes")
    assert report.ok
    assert 2 * report.ops_ok >= report.ops_ok + report.ops_failed


def test_run_cell_resolves_named_and_random_plans():
    assert run_cell("quorum", plan="random", seed=5, ops=10).plan == "random-5"
    with pytest.raises(ValueError, match="unknown plan"):
        run_cell("quorum", plan="nope", ops=10)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def test_cli_chaos_smoke(capsys):
    from repro.cli import main

    code = main(["chaos", "--seed", "7", "--plan", "crashes",
                 "--stack", "quorum", "--ops", "30"])
    out = capsys.readouterr().out
    assert code == 0
    assert "quorum" in out
    assert "convergence" in out


def test_cli_chaos_rejects_unknown_plan_and_protocol(capsys):
    from repro.cli import main

    assert main(["chaos", "--plan", "nope"]) == 2
    assert main(["chaos", "--stack", "nope"]) == 2
    assert main(["chaos", "--list"]) == 0
    assert "partitions" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Escrow / RedBlue invariants under partition (satellite)
# ----------------------------------------------------------------------

def test_escrow_invariant_holds_under_partition():
    sim = Simulator(seed=5)
    net = Network(sim, latency=FixedLatency(10.0))
    counter = EscrowCounter(sim, net, total=300.0)  # 100 each
    outcomes = []

    def debits(i):
        yield 20.0  # the partition is up by now
        try:
            yield counter.site(i).debit(80.0)  # within local allowance
            outcomes.append(("local", i))
        except InvariantViolation:
            outcomes.append(("local-abort", i))
        try:
            yield counter.site(i).debit(50.0)  # needs a peer transfer
            outcomes.append(("transfer", i))
        except InvariantViolation:
            outcomes.append(("transfer-abort", i))

    def nemesis():
        yield 10.0
        net.partition(["esc0"], ["esc1"], ["esc2"])  # total isolation
        yield 2_000.0
        net.heal()

    spawn(sim, nemesis())
    for i in range(3):
        spawn(sim, debits(i))
    sim.run()
    # In-allowance debits commit locally even fully partitioned;
    # over-allowance debits abort once peer transfers time out.  No
    # headroom is lost or double-spent: 300 - 3*80 = 60 remains.
    assert sorted(o[0] for o in outcomes) == \
        ["local"] * 3 + ["transfer-abort"] * 3
    assert counter.global_headroom() == pytest.approx(60.0)
    assert counter.global_headroom() >= 0.0


def test_redblue_partition_blue_stays_available_red_stays_safe():
    sim = Simulator(seed=6)
    net = Network(sim, latency=FixedLatency(10.0))
    bank = RedBlueBank(sim, net)

    def script():
        yield bank.site(0).deposit("acct", 100.0)
        yield 100.0  # let the deposit propagate everywhere
        # Cut the sequencer off: blue ops must stay available, red ops
        # must lose liveness, never safety.
        net.partition(["site0", "site1", "site2"], ["red-seq"])
        yield bank.site(1).deposit("acct", 25.0)  # blue: local commit
        bank.site(2).withdraw("acct", 60.0)  # red: request is lost
        yield 500.0
        net.heal()

    spawn(sim, script())
    sim.run()
    sim.run(until=sim.now + 500.0)
    # Sites converge on deposits only — the partitioned red withdrawal
    # never took effect anywhere (conservative), and the balance never
    # went negative.
    balance = bank.converged_balance("acct")
    assert balance == pytest.approx(125.0)
    assert balance >= 0.0
