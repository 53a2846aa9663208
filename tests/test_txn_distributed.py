"""Tests for RedBlue and escrow on the simulator."""

import pytest

from repro.errors import InvariantViolation
from repro.sim import FixedLatency, Network, Simulator, spawn
from repro.txn import (
    CentralCounterClient,
    CentralCounterServer,
    EscrowCounter,
    RedBlueBank,
)


# ----------------------------------------------------------------------
# RedBlue
# ----------------------------------------------------------------------

def make_redblue(seed=0, latency=40.0):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=FixedLatency(latency))
    bank = RedBlueBank(sim, net)
    return sim, net, bank


def test_blue_deposit_is_local_and_converges():
    sim, _net, bank = make_redblue()
    timing = {}

    def script():
        start = sim.now
        yield bank.site(0).deposit("acct", 100.0)
        timing["latency"] = sim.now - start

    spawn(sim, script())
    sim.run()
    sim.run(until=sim.now + 300.0)
    assert timing["latency"] == 0.0                 # local commit
    assert bank.converged_balance("acct") == 100.0  # async propagation


def test_red_withdraw_pays_wan_round_trip():
    sim, _net, bank = make_redblue(latency=40.0)
    timing = {}

    def script():
        yield bank.site(0).deposit("acct", 100.0)
        yield 200.0  # let the sequencer learn the deposit
        start = sim.now
        yield bank.site(0).withdraw("acct", 30.0)
        timing["latency"] = sim.now - start

    spawn(sim, script())
    sim.run()
    sim.run(until=sim.now + 300.0)
    assert timing["latency"] == pytest.approx(80.0)  # RTT to sequencer
    assert bank.converged_balance("acct") == 70.0


def test_overdraft_rejected_never_negative():
    sim, _net, bank = make_redblue()
    outcome = {}

    def script():
        yield bank.site(0).deposit("acct", 50.0)
        yield 200.0
        try:
            yield bank.site(1).withdraw("acct", 80.0)
            outcome["r"] = "allowed"
        except InvariantViolation:
            outcome["r"] = "rejected"

    spawn(sim, script())
    sim.run()
    sim.run(until=sim.now + 300.0)
    assert outcome["r"] == "rejected"
    assert bank.coordinator.rejections == 1
    assert bank.converged_balance("acct") == 50.0


def test_concurrent_red_withdrawals_cannot_double_spend():
    sim, _net, bank = make_redblue(latency=10.0)
    results = []

    def script(site_index):
        try:
            yield bank.site(site_index).withdraw("acct", 60.0)
            results.append("ok")
        except InvariantViolation:
            results.append("rejected")

    def setup():
        yield bank.site(0).deposit("acct", 100.0)
        yield 100.0
        spawn(sim, script(1))
        spawn(sim, script(2))

    spawn(sim, setup())
    sim.run()
    sim.run(until=sim.now + 300.0)
    assert sorted(results) == ["ok", "rejected"]
    assert bank.converged_balance("acct") == 40.0


def test_sequencer_view_is_conservative_not_stale_unsafe():
    # A withdrawal racing its own funding deposit may be rejected
    # (conservative) but never overdraws.
    sim, _net, bank = make_redblue(latency=50.0)
    outcome = {}

    def script():
        yield bank.site(0).deposit("acct", 100.0)
        try:
            yield bank.site(0).withdraw("acct", 100.0)  # deposit in flight
            outcome["r"] = "ok"
        except InvariantViolation:
            outcome["r"] = "rejected"

    spawn(sim, script())
    sim.run()
    sim.run(until=sim.now + 500.0)
    balance = bank.converged_balance("acct")
    if outcome["r"] == "ok":
        assert balance == 0.0
    else:
        assert balance == 100.0
    assert balance >= 0.0


def test_blue_ops_from_all_sites_commute():
    sim, _net, bank = make_redblue(seed=7)

    def script(index):
        for i in range(5):
            yield bank.site(index).deposit("acct", float(index + 1))
            yield 13.0

    for index in range(3):
        spawn(sim, script(index))
    sim.run()
    sim.run(until=sim.now + 500.0)
    assert bank.converged_balance("acct") == 5 * (1 + 2 + 3)


# ----------------------------------------------------------------------
# Escrow
# ----------------------------------------------------------------------

def make_escrow(total, seed=0, latency=30.0):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=FixedLatency(latency))
    counter = EscrowCounter(sim, net, total=total)
    return sim, net, counter


def test_local_debit_within_allowance_is_free():
    sim, _net, counter = make_escrow(total=300.0)
    timing = {}

    def script():
        start = sim.now
        yield counter.site(0).debit(50.0)
        timing["latency"] = sim.now - start

    spawn(sim, script())
    sim.run()
    assert timing["latency"] == 0.0
    assert counter.site(0).local_commits == 1
    assert counter.global_headroom() == 250.0


def test_debit_beyond_allowance_transfers_from_peers():
    sim, _net, counter = make_escrow(total=300.0)  # 100 each
    out = {}

    def script():
        start = sim.now
        yield counter.site(0).debit(180.0)   # needs 80 more
        out["latency"] = sim.now - start

    spawn(sim, script())
    sim.run()
    assert out["latency"] > 0.0  # paid at least one WAN round trip
    assert counter.site(0).transfers_requested >= 1
    assert counter.global_headroom() == pytest.approx(120.0)


def test_debit_beyond_global_headroom_aborts():
    sim, _net, counter = make_escrow(total=90.0)
    out = {}

    def script():
        try:
            yield counter.site(0).debit(100.0)
            out["r"] = "ok"
        except InvariantViolation:
            out["r"] = "aborted"

    spawn(sim, script())
    sim.run()
    assert out["r"] == "aborted"
    assert counter.site(0).aborts == 1
    # Headroom solicited from peers is returned-to/held-by site 0, not lost.
    assert counter.global_headroom() == pytest.approx(90.0)


def test_invariant_holds_under_concurrent_debits():
    sim, _net, counter = make_escrow(total=200.0, seed=3)
    failures = []

    def script(index):
        for _ in range(6):
            try:
                yield counter.site(index).debit(15.0)
            except InvariantViolation:
                failures.append(index)
            yield 11.0

    for index in range(3):
        spawn(sim, script(index))
    sim.run()
    spent = 15.0 * (18 - len(failures))
    assert counter.global_headroom() == pytest.approx(200.0 - spent)
    assert counter.global_headroom() >= 0.0


def test_uneven_split_validation():
    sim = Simulator()
    net = Network(sim)
    # The split is even; only the total can be invalid.
    with pytest.raises(InvariantViolation):
        EscrowCounter(sim, net, total=-5.0)


def test_central_baseline_pays_rtt_every_time():
    sim = Simulator(seed=1)
    net = Network(sim, latency=FixedLatency(25.0))
    server = CentralCounterServer(sim, net, "server", total=100.0)
    client = CentralCounterClient(sim, net, "client", "server")
    timing = {}

    def script():
        start = sim.now
        yield client.debit(10.0)
        timing["first"] = sim.now - start
        try:
            yield client.debit(1000.0)
            timing["overdraft"] = "ok"
        except InvariantViolation:
            timing["overdraft"] = "rejected"

    spawn(sim, script())
    sim.run()
    assert timing["first"] == pytest.approx(50.0)
    assert timing["overdraft"] == "rejected"
    assert server.headroom == 90.0

