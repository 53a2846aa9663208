"""E9 ("Table 3"): escrow — local commits while the invariant holds.

Claims: (a) with ample headroom, escrow debits commit locally (zero
WAN latency) while the centralized-lock baseline pays a round trip per
op; (b) as demand approaches the bound, escrow's latency rises (escrow
transfers) and aborts appear only when the *global* headroom is truly
exhausted; (c) the invariant (headroom ≥ 0) holds in every regime.
"""

import pytest

from common import emit
from repro import Network, Simulator, spawn
from repro.analysis import LatencyStats, render_table
from repro.errors import InvariantViolation
from repro.sim import FixedLatency
from repro.txn import CentralCounterClient, CentralCounterServer, EscrowCounter
from repro.workload import DebitWorkload

TOTAL = 600.0
OPS = 48
WAN = 35.0


def run_escrow(demand_fraction, seed=6, skew=False):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=FixedLatency(WAN))
    counter = EscrowCounter(sim, net, total=TOTAL)
    workload = DebitWorkload(
        sites=3, total_headroom=TOTAL, operations=OPS,
        demand_fraction=demand_fraction,
        skew_site=0 if skew else None, skew_weight=0.9 if skew else 0.0,
        seed=seed,
    )
    latency = LatencyStats()
    aborts = [0]

    def script():
        for op in workload.take():
            start = sim.now
            try:
                yield counter.site(op.site).debit(op.amount)
                latency.record(sim.now - start)
            except InvariantViolation:
                aborts[0] += 1
            yield 3.0

    spawn(sim, script())
    sim.run()
    assert counter.global_headroom() >= -1e-9  # the invariant
    transfers = sum(site.transfers_requested for site in counter.sites)
    return {
        "mean_latency": latency.mean,
        "aborts": aborts[0],
        "transfers": transfers,
    }


def run_central(demand_fraction, seed=6):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=FixedLatency(WAN))
    CentralCounterServer(sim, net, "server", total=TOTAL)
    client = CentralCounterClient(sim, net, "client", "server")
    workload = DebitWorkload(sites=3, total_headroom=TOTAL, operations=OPS,
                             demand_fraction=demand_fraction, seed=seed)
    latency = LatencyStats()
    aborts = [0]

    def script():
        for op in workload.take():
            start = sim.now
            try:
                yield client.debit(op.amount)
                latency.record(sim.now - start)
            except InvariantViolation:
                aborts[0] += 1
            yield 3.0

    spawn(sim, script())
    sim.run()
    return {"mean_latency": latency.mean, "aborts": aborts[0]}


def test_e9_escrow(benchmark, capsys):
    fractions = (0.5, 0.8, 1.0, 1.3)
    rows = []
    escrow_results = {}
    for fraction in fractions:
        escrow = run_escrow(fraction)
        central = run_central(fraction)
        escrow_results[fraction] = escrow
        rows.append([
            fraction,
            round(escrow["mean_latency"], 1), escrow["aborts"],
            escrow["transfers"],
            round(central["mean_latency"], 1), central["aborts"],
        ])
    emit(capsys, render_table(
        ["demand/headroom", "escrow ms", "escrow aborts",
         "escrow transfers", "central ms", "central aborts"],
        rows,
        title=f"E9: bounded counter, 3 sites, {WAN:.0f}ms WAN, "
              f"{OPS} debits against {TOTAL:.0f} headroom",
    ))
    skewed = run_escrow(0.8, skew=True)
    emit(capsys, render_table(
        ["workload", "escrow mean ms", "transfers"],
        [["uniform demand 0.8", round(escrow_results[0.8]["mean_latency"], 1),
          escrow_results[0.8]["transfers"]],
         ["90% demand at site 0", round(skewed["mean_latency"], 1),
          skewed["transfers"]]],
        title="E9b: skew ablation — transfers chase the demand",
    ))

    # (a) slack regime: escrow is local, central pays RTTs.
    assert escrow_results[0.5]["mean_latency"] < 2.0
    assert escrow_results[0.5]["aborts"] == 0
    assert run_central(0.5)["mean_latency"] >= 2 * WAN * 0.9
    # (b) tight/over regimes: transfers, then unavoidable aborts.
    assert escrow_results[1.3]["aborts"] > 0
    assert escrow_results[1.0]["transfers"] > 0
    assert (
        escrow_results[1.0]["mean_latency"]
        > escrow_results[0.5]["mean_latency"]
    )
    # Skew drives more transfers than uniform demand.
    assert skewed["transfers"] > escrow_results[0.8]["transfers"]

    benchmark.pedantic(run_escrow, args=(0.8,), rounds=2, iterations=1)
