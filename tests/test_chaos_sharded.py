"""Nemesis conformance over the elastic sharded store, as grid cells.

The chaos suite's contract — converge after heal, lose no acknowledged
write, grade what the outer layer declares — must hold when the store
under fault is a ``sharded:`` stack, including under the ``rebalance``
plan that scales the ring while a partition is open.  A router over
per-key-linearizable shards is per-key linearizable (linearizability
is local), so ``sharded:`` keeps its protocol's linearizable read
modes and per-key ``ryw`` / ``mr``.
"""

import pytest

from repro.chaos import (
    PASS,
    PLANS,
    UNKNOWN,
    Nemesis,
    build_stack,
    run_cell,
)
from repro.sim import FixedLatency, Network, Simulator
from repro.workload import YCSBWorkload, run_workload

#: The sharded cells' size: three shards of three replicas.
CELL = dict(nodes=3, clients=2, ops=80)
#: The new cells' size, and the seeds they are graded on.
GRID = dict(nodes=3, clients=3, ops=120)
SEEDS = range(20)


def sharded_cell(plan):
    return run_cell("sharded:quorum", plan=plan, **CELL)


@pytest.mark.parametrize("name", ["partitions", "crashes", "mixed",
                                  "rebalance"])
def test_sharded_store_converges_after_heal(name):
    convergence = sharded_cell(name).check("convergence")
    assert convergence.status == PASS, convergence.detail


@pytest.mark.parametrize("name", ["partitions", "rebalance"])
def test_sharded_store_loses_no_acked_write(name):
    durability = sharded_cell(name).check("durability")
    assert durability.status == UNKNOWN           # no store claims it
    assert durability.detail.endswith("(held on this run)")
    assert durability.checked_ops > 0


def test_rebalance_plan_actually_scales_the_ring():
    sim = Simulator(seed=42)
    network = Network(sim, latency=FixedLatency(2.0))
    store, read_mode = build_stack("sharded:quorum", sim, network, nodes=3,
                                   ttl=None, flush_delay=0.0)
    nemesis = Nemesis(PLANS["rebalance"], seed=42)
    run_workload(store, YCSBWorkload("A", records=24, seed=42).take(80),
                 clients=2, timeout=250.0, think_time=2.0,
                 read_mode=read_mode, nemesis=nemesis)
    nemesis.heal_all()
    # A ring move started mid-partition stalls on retries until the
    # heal; run() also drains any such move to completion.
    sim.run()
    # scale_out fires mid-partition (the move stalls, then completes
    # after the heal); scale_in may be skipped as busy — the plan must
    # have grown the ring at some point either way.
    assert sim.metrics.counter("handoff.ranges_flipped").value > 0
    assert not store.rebalancing            # nothing left in flight
    assert len(store.shard_ids) >= 3


def test_scale_faults_are_noops_on_inelastic_stores():
    report = run_cell("quorum", plan="rebalance", **CELL)
    assert report.ops_ok + report.ops_failed == CELL["ops"]
    assert report.check("convergence").status == PASS


def test_rebalance_chaos_replays_bit_identically():
    digests = [sharded_cell("rebalance").fingerprint for _ in range(2)]
    assert digests[0] == digests[1]


@pytest.mark.parametrize("plan", ["partitions", "random"])
@pytest.mark.parametrize("protocol", ["multipaxos", "chain",
                                      "primary_backup"])
def test_sharded_linearizable_protocols_stay_linearizable(protocol, plan):
    for seed in SEEDS:
        report = run_cell(f"sharded:{protocol}", seed=seed, plan=plan, **GRID)
        check = report.check("linearizable")
        assert check.claimed and check.status == PASS, (seed, check.detail)
        assert report.ok, seed


@pytest.mark.parametrize("plan", ["partitions", "random"])
@pytest.mark.parametrize("protocol", ["causal", "timeline"])
def test_sharded_sessions_keep_per_key_guarantees(protocol, plan):
    for seed in SEEDS:
        report = run_cell(f"sharded:{protocol}", seed=seed, plan=plan, **GRID)
        for guarantee in ("ryw", "mr"):
            check = report.check(guarantee)
            assert check.claimed and check.status == PASS, (seed, check)
        # Across keys is across shards: not claimed.
        assert not report.check("mw").claimed
        assert report.ok, seed


def _held(check):
    """A claimed check passed, or an unclaimed one held on this run."""
    return check.status == PASS or check.detail.endswith("(held on this run)")


@pytest.mark.xfail(strict=True, reason="ROADMAP item 19")
def test_sharded_claims_hold_through_ring_moves():
    """Under ``rebalance`` a key's version token can go backwards when
    its range moves shards; the claims should hold once it cannot."""
    broken = [
        (protocol, seed, check.guarantee)
        for protocol in ("multipaxos", "chain") for seed in range(10)
        for check in run_cell(f"sharded:{protocol}", seed=seed,
                              plan="rebalance", **GRID).results
        if check.guarantee in ("linearizable", "ryw", "mr")
        and not _held(check)
    ]
    assert broken == []
