"""E1 ("Figure 1"): the consistency–latency spectrum.

Claim: client-observed latency rises monotonically along
eventual → session → bounded/quorum → strong, in a geo deployment.
Workload: YCSB-style read/write rounds, client in the EU, replicas on
three continents.

Every rung is built through :mod:`repro.api.registry` and driven by
the protocol-agnostic :class:`repro.workload.WorkloadDriver` — the
same store construction + driver call per protocol, with only the
registry name and session options varying.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

from common import SITES, emit, geo_network
from repro import Simulator
from repro.analysis import render_table
from repro.api import registry
from repro.checkers import (
    check_causal,
    check_linearizability,
    stale_read_fraction,
)
from repro.cli import main
from repro.client import SessionClient
from repro.workload import OpSpec, WorkloadDriver

ROUNDS = 12


def rw_rounds(rounds=ROUNDS, read_heavy=False, think=5.0):
    """The E1 op stream: write, pause, read(s), pause — per round."""
    ops = []
    for i in range(rounds):
        key = f"key-{i % 3}"
        ops.append(OpSpec("update", key, f"v{i}"))
        ops.append(OpSpec("sleep", "", think))
        for _ in range(3 if read_heavy else 1):
            ops.append(OpSpec("read", key))
            ops.append(OpSpec("sleep", "", think))
    return ops


#: Rung -> (registry name, build kwargs, client placement, session opts,
#: node id prefix).  A ``guarantees`` session opt wraps the session in a
#: :class:`~repro.client.SessionClient`.
RUNGS = {
    "eventual R=W=1": (
        "quorum",
        dict(n=3, r=1, w=1, op_deadline=2_000.0, client_timeout=4_000.0),
        {"dclient-1": "eu"},
        dict(client_id="dclient-1", coordinator="dyn1"),
        "dyn",
    ),
    "quorum R=W=2": (
        "quorum",
        dict(n=3, r=2, w=2, op_deadline=2_000.0, client_timeout=4_000.0),
        {"dclient-1": "eu"},
        dict(client_id="dclient-1", coordinator="dyn1"),
        "dyn",
    ),
    "timeline read-local": (
        "timeline",
        dict(propagation_delay=20.0),
        {"tlclient-1": "eu", "tl0-fwd": "us-east"},
        dict(client_id="tlclient-1", home="tl1"),
        "tl",
    ),
    "session RYW+MR": (
        "timeline",
        dict(propagation_delay=20.0),
        {"tlclient-1": "eu", "tl0-fwd": "us-east"},
        dict(client_id="tlclient-1", home="tl1", guarantees=("ryw", "mr")),
        "tl",
    ),
    "paxos": (
        "multipaxos", {}, {"pxclient-1": "eu"},
        dict(client_id="pxclient-1"), "px",
    ),
    "chain": (
        "chain", {}, {"chclient-1": "eu"},
        dict(client_id="chclient-1"), "ch",
    ),
}


def run_protocol(name, seed=1, read_heavy=False):
    sim = Simulator(seed=seed)
    if name.startswith("causal"):
        return _run_causal(sim, read_heavy)
    spec_name, build_kwargs, client_sites, session_opts, prefix = RUNGS[name]
    ids = [f"{prefix}{i}" for i in range(3)]
    net = geo_network(sim, ids, client_sites)
    store = registry.build(spec_name, sim, net, nodes=3, node_ids=ids,
                           **build_kwargs)
    if spec_name == "timeline":
        for i in range(3):
            store.set_master(f"key-{i}", f"{prefix}0")
    session_opts = dict(session_opts)
    guarantees = session_opts.pop("guarantees", ())
    session = store.session("session-1", **session_opts)
    if guarantees:
        session = SessionClient(sim, session, guarantees)
    driver = WorkloadDriver(sim)
    driver.add_session(session, rw_rounds(read_heavy=read_heavy))
    result = driver.run()
    history = result.history
    return {
        "protocol": name,
        "read_ms": result.read_latency.mean,
        "write_ms": result.write_latency.mean,
        "stale": stale_read_fraction(history),
        "linearizable": check_linearizability(history).ok,
    }


def _run_causal(sim, read_heavy):
    """COPS-style: writer in the EU writes locally; a reader in Asia
    reads locally.  Reads are ~free and may be stale, but the causal
    checker vouches for the history — the rung's defining property.
    Two driver lanes share one recorder, so both sessions densify into
    a single checkable history."""
    ids = [f"cc{i}" for i in range(3)]
    net = geo_network(sim, ids, {"ccclient-1": "eu", "ccclient-2": "asia"})
    store = registry.build("causal", sim, net, nodes=3, node_ids=ids)

    writes = []
    reads = [OpSpec("sleep", "", 5.0)]
    for i in range(ROUNDS):
        key = f"key-{i % 3}"
        writes += [OpSpec("update", key, f"v{i}"), OpSpec("sleep", "", 10.0)]
        reads += [OpSpec("read", key), OpSpec("sleep", "", 10.0)]

    driver = WorkloadDriver(sim)
    driver.add_session(
        store.session("writer", home="cc1", client_id="ccclient-1"), writes)
    driver.add_session(
        store.session("reader", home="cc2", client_id="ccclient-2"), reads)
    result = driver.run()
    sim.run(until=sim.now + 500.0)   # let replication settle
    history = result.history
    return {
        "protocol": "causal (COPS, far reader)",
        "read_ms": result.read_latency.mean,
        "write_ms": result.write_latency.mean,
        "stale": stale_read_fraction(history),
        "linearizable": check_linearizability(history).ok,
        "causal_ok": check_causal(history).ok,
    }


PROTOCOLS = [
    "eventual R=W=1",
    "timeline read-local",
    "causal (COPS, far reader)",
    "session RYW+MR",
    "quorum R=W=2",
    "paxos",
    "chain",
]


@pytest.mark.parametrize("read_heavy", [False, True])
def test_e1_spectrum(benchmark, capsys, read_heavy):
    results = [run_protocol(p, read_heavy=read_heavy) for p in PROTOCOLS]
    mix = "95/5-ish (3 reads/round)" if read_heavy else "50/50"
    emit(capsys, render_table(
        ["protocol", "read ms", "write ms", "stale frac", "linearizable"],
        [[r["protocol"], round(r["read_ms"], 1), round(r["write_ms"], 1),
          round(r["stale"], 3), r["linearizable"]] for r in results],
        title=f"E1: consistency-latency spectrum — EU client, {mix} mix, "
              f"sites {', '.join(SITES)}",
    ))

    by_name = {r["protocol"]: r for r in results}
    # Shape assertions from the taxonomy:
    # 1. eventual local reads are the cheapest; strong reads cost WAN RTTs.
    assert by_name["eventual R=W=1"]["read_ms"] < 5.0
    assert by_name["quorum R=W=2"]["read_ms"] > 50.0
    assert by_name["paxos"]["read_ms"] > 100.0
    # 2. session guarantees sit between local reads and quorum reads.
    assert (
        by_name["timeline read-local"]["read_ms"]
        <= by_name["session RYW+MR"]["read_ms"]
        <= by_name["quorum R=W=2"]["read_ms"] + 60.0
    )
    # 3. the strong rungs produce linearizable histories; read-local
    #    timeline does not (it is the stale rung).
    assert by_name["paxos"]["linearizable"]
    assert by_name["chain"]["linearizable"]
    assert by_name["quorum R=W=2"]["linearizable"]
    assert not by_name["timeline read-local"]["linearizable"]
    assert by_name["timeline read-local"]["stale"] > 0.3
    # 4. the causal rung: local-read cheap, stale allowed, NOT
    #    linearizable — but machine-checked causal.
    causal = by_name["causal (COPS, far reader)"]
    assert causal["read_ms"] < 5.0
    assert causal["stale"] > 0.3
    assert not causal["linearizable"]
    assert causal["causal_ok"]

    benchmark.pedantic(
        run_protocol, args=("eventual R=W=1",),
        kwargs={"read_heavy": read_heavy}, rounds=2, iterations=1,
    )


def test_e1_cli_spectrum(capsys):
    """``repro spectrum``'s table, exactly as the command prints it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["spectrum"]) == 0
    emit(capsys, out.getvalue().strip("\n"))


def test_e1_geo_example(capsys):
    """The table ``examples/geo_replication.py`` prints."""
    path = Path(__file__).resolve().parent.parent / "examples" / \
        "geo_replication.py"
    spec = importlib.util.spec_from_file_location("geo_replication", path)
    example = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(example)
    emit(capsys, example.table())
