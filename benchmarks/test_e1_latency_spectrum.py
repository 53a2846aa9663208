"""E1 ("Figure 1"): the consistency–latency spectrum.

Claim: client-observed latency rises monotonically along
eventual → session → bounded/quorum → strong, in a geo deployment.
Workload: rounds of one write and one or three reads, client in the EU,
replicas on three continents.

The table is :mod:`repro.scenarios.spectrum`'s: every rung is built
through :mod:`repro.api.registry` and driven by the protocol-agnostic
:class:`repro.workload.WorkloadDriver`.  At one read per round it is
the table ``repro spectrum`` prints by default.
"""

import contextlib
import io

import pytest

from common import emit
from repro import Simulator
from repro.checkers import check_causal
from repro.cli import main
from repro.scenarios.spectrum import (
    ROUNDS,
    RUNGS,
    SEED,
    format_spectrum,
    run_rung,
    run_spectrum,
    rw_ops,
)


@pytest.mark.parametrize("read_heavy", [False, True])
def test_e1_spectrum(benchmark, capsys, read_heavy):
    reads = 3 if read_heavy else 1
    rows = run_spectrum(SEED, ROUNDS, reads)
    table = format_spectrum(rows, reads)
    emit(capsys, table)
    if not read_heavy:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["spectrum"]) == 0
        assert out.getvalue() == table + "\n"

    by_name = {row.label: row for row in rows}
    # Shape assertions from the taxonomy:
    # 1. eventual local reads are the cheapest; strong reads cost WAN RTTs.
    assert by_name["eventual (R=W=1)"].read_ms < 5.0
    assert by_name["quorum (R=W=2)"].read_ms > 50.0
    assert by_name["strong (paxos)"].read_ms > 100.0
    # 2. session guarantees sit between local reads and quorum reads,
    #    and they hold: the session rung reads nothing stale.
    timeline = by_name["timeline (read local)"]
    session = by_name["session RYW+MR"]
    assert (timeline.read_ms <= session.read_ms
            <= by_name["quorum (R=W=2)"].read_ms + 60.0)
    assert session.stale == 0
    # 3. the strong rungs produce linearizable histories; read-local
    #    timeline does not (it is the stale rung).
    assert by_name["strong (paxos)"].linearizable
    assert by_name["strong (chain)"].linearizable
    assert by_name["quorum (R=W=2)"].linearizable
    assert not timeline.linearizable
    assert timeline.stale > 0.3
    # 4. the causal rung: local-read cheap, stale allowed, NOT
    #    linearizable — but machine-checked causal.
    causal = by_name["causal (COPS, far reader)"]
    assert causal.read_ms < 5.0
    assert causal.stale > 0.3
    assert not causal.linearizable
    assert check_causal(causal.history).ok

    ops = rw_ops(ROUNDS, reads)
    benchmark.pedantic(lambda: run_rung(RUNGS[0], Simulator(seed=SEED), ops),
                       rounds=2, iterations=1)
