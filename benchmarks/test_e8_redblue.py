"""E8 ("Figure 6"): RedBlue — latency falls as the blue fraction rises.

Claim: with deposits blue (local, commutative) and withdrawals red
(globally serialized), mean operation latency decreases monotonically
in the blue fraction, the invariant (balance ≥ 0) never breaks, and
all sites converge to identical balances.
"""

import pytest

from common import emit
from repro import Network, Simulator, spawn
from repro.analysis import LatencyStats, render_table
from repro.errors import InvariantViolation
from repro.sim import FixedLatency
from repro.txn import RedBlueBank
from repro.workload import BankWorkload

OPS = 60
WAN = 40.0


def run_blue_fraction(blue_fraction, seed=4):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=FixedLatency(WAN))
    bank = RedBlueBank(sim, net)
    workload = BankWorkload(accounts=4, blue_fraction=blue_fraction,
                            seed=seed)
    ops = workload.take(OPS)
    latency = LatencyStats()
    rejected = [0]

    def script():
        # Seed every account generously so most withdrawals are valid.
        for account in range(4):
            yield bank.site(0).deposit(f"acct-{account}", 500.0)
        yield 200.0
        for op in ops:
            start = sim.now
            site = bank.site(op.site)
            try:
                if op.action == "deposit":
                    yield site.deposit(op.account, op.amount)
                else:
                    yield site.withdraw(op.account, op.amount)
                latency.record(sim.now - start)
            except InvariantViolation:
                rejected[0] += 1
            yield 5.0

    spawn(sim, script())
    sim.run()
    sim.run(until=sim.now + 1_000.0)
    balances = {}
    for account in range(4):
        balances[f"acct-{account}"] = bank.converged_balance(f"acct-{account}")
    assert all(balance >= 0 for balance in balances.values())
    return {
        "mean_latency": latency.mean,
        "p99": latency.p99,
        "rejected": rejected[0],
    }


def test_e8_redblue(benchmark, capsys):
    fractions = (0.0, 0.25, 0.5, 0.75, 0.9, 1.0)
    results = {f: run_blue_fraction(f) for f in fractions}
    emit(capsys, render_table(
        ["blue fraction", "mean op latency (ms)", "p99 (ms)",
         "invariant rejections"],
        [
            [f, round(results[f]["mean_latency"], 1),
             round(results[f]["p99"], 1), results[f]["rejected"]]
            for f in fractions
        ],
        title=f"E8: RedBlue bank, 3 sites, {WAN:.0f}ms one-way WAN, "
              f"{OPS} ops",
    ))

    # Monotone non-increasing latency in blue fraction (within noise).
    means = [results[f]["mean_latency"] for f in fractions]
    for earlier, later in zip(means, means[1:]):
        assert later <= earlier + 1.0
    # The endpoints bracket the claim: all-red ≈ one WAN RTT per op;
    # all-blue ≈ free.
    assert means[0] > 2 * WAN * 0.9
    assert means[-1] < 1.0
    # Speedup is large.
    assert means[0] / max(means[-1], 1e-9) > 50

    benchmark.pedantic(run_blue_fraction, args=(0.5,), rounds=2,
                       iterations=1)
