"""The consistency–latency spectrum: one catalogue of rungs, one geo
layout, one row function.

The tutorial's central table.  Replicas ``n0``/``n1``/``n2`` sit in
us-east / eu / asia; one client in the EU (``client-eu``) writes a key
and reads it back, 5 ms apart, for a number of rounds.  A far-reader
rung splits that stream: the EU client does the writes and a second
client in Asia (``client-asia``) the reads, racing replication.  Each
rung is a store from the registry, built and driven the same way, and
its row is what the client observed (mean read and write latency) and
what the checkers say of the history.  ``repro spectrum``, E1 and
``examples/geo_replication.py`` all print this table.
"""

from __future__ import annotations

from typing import Any, NamedTuple

from ..analysis import render_table
from ..api import registry
from ..checkers import check_linearizability, stale_read_fraction
from ..client import SessionClient
from ..histories import History
from ..sim import THREE_CONTINENTS, Network, Simulator
from ..workload import OpSpec, WorkloadDriver

SITES = ("us-east", "eu", "asia")
NODES = ["n0", "n1", "n2"]           # one replica per site, in order
ROUNDS = 15
SEED = 1
TIMEOUT = 4_000.0                    # per-op client timeout (ms)
PAUSE = OpSpec("sleep", "", 5.0)


class Rung(NamedTuple):
    """One row of the spectrum and how to build it."""

    label: str
    protocol: str                    # registry name
    build: dict[str, Any]            # build options
    pin: str | None                  # session option naming the client's
                                     # local replica (None: the store's)
    guarantees: tuple[str, ...]      # a SessionClient's, () for none
    read_mode: str | None            # the driver's, None for the store's
    far_reader: bool                 # reads come from a client in Asia


_DYNAMO = dict(n=3, op_deadline=2_000.0)
_LAGGED = dict(propagation_delay=20.0)   # timeline replicas lag 20 ms

#: Walking down the table is walking up the spectrum.
RUNGS = (
    Rung("eventual (R=W=1)", "quorum", dict(_DYNAMO, r=1, w=1),
         "coordinator", (), None, False),
    Rung("eventual + far reader", "quorum", dict(_DYNAMO, r=1, w=1),
         "coordinator", (), None, True),
    Rung("quorum (R=W=2)", "quorum", dict(_DYNAMO, r=2, w=2),
         "coordinator", (), None, False),
    Rung("causal (local)", "causal", {}, "home", (), None, False),
    Rung("causal (COPS, far reader)", "causal", {}, "home", (), None, True),
    Rung("timeline (read local)", "timeline", _LAGGED, "home", (), "any",
         False),
    Rung("session RYW+MR", "timeline", _LAGGED, "home", ("ryw", "mr"), "any",
         False),
    Rung("pileus (SLA reads)", "pileus", {}, "home", (), None, False),
    Rung("primary-backup (async)", "primary_backup", dict(mode="async"),
         None, (), None, False),
    Rung("strong (paxos)", "multipaxos", {}, None, (), None, False),
    Rung("strong (chain)", "chain", {}, None, (), None, False),
)


class Row(NamedTuple):
    """One row of the table, and the history it grades."""

    label: str
    read_ms: float                   # mean
    write_ms: float                  # mean
    stale: float                     # stale-read fraction
    linearizable: bool
    history: History


def geo_network(sim: Simulator) -> Network:
    """The replicas and both clients, over THREE_CONTINENTS."""
    placement = dict(zip(NODES, SITES))
    placement.update({"client-eu": "eu", "client-asia": "asia"})
    return Network(
        sim, latency=THREE_CONTINENTS.latency_model(placement, jitter=0.05)
    )


def rw_ops(rounds: int, reads_per_round: int) -> list[OpSpec]:
    """Per round: write ``key-(i % 3)``, then read it back
    ``reads_per_round`` times, each op followed by a 5 ms pause."""
    ops = []
    for i in range(rounds):
        key = f"key-{i % 3}"
        ops += [OpSpec("update", key, f"v{i}"), PAUSE]
        ops += [OpSpec("read", key), PAUSE] * reads_per_round
    return ops


def run_rung(rung: Rung, sim: Simulator, ops: list[OpSpec]) -> Row:
    """Build ``rung``'s store on ``sim``, drive ``ops`` through it (split
    between the EU writer and the Asia reader on a far-reader rung) and
    grade the history."""
    store = registry.build(rung.protocol, sim, geo_network(sim), nodes=3,
                           node_ids=NODES, **rung.build)
    if hasattr(store, "set_master"):
        for i in range(3):
            store.set_master(f"key-{i}", "n0")   # mastered in us-east
    lanes = [("eu", ops)]
    if rung.far_reader:
        lanes = [("eu", [op for op in ops if op.op != "read"]),
                 ("asia", [op for op in ops if op.op != "update"])]
    driver = WorkloadDriver(sim)
    for site, lane in lanes:
        opts = {"client_id": f"client-{site}"}
        if rung.pin is not None:
            opts[rung.pin] = NODES[SITES.index(site)]
        session = store.session(f"{site}-user", **opts)
        if rung.guarantees:
            session = SessionClient(sim, session, rung.guarantees)
        driver.add_session(session, lane, read_mode=rung.read_mode,
                           timeout=TIMEOUT)
    result = driver.run()
    history = result.history
    return Row(rung.label, result.read_latency.mean,
               result.write_latency.mean, stale_read_fraction(history),
               check_linearizability(history).ok, history)


def run_spectrum(seed: int, rounds: int, reads_per_round: int) -> list[Row]:
    """Every rung, each on a fresh simulator seeded ``seed``."""
    ops = rw_ops(rounds, reads_per_round)
    return [run_rung(rung, Simulator(seed=seed), ops) for rung in RUNGS]


def format_spectrum(rows: list[Row], reads_per_round: int) -> str:
    return render_table(
        ["protocol", "read ms", "write ms", "stale reads", "linearizable"],
        [[row.label, round(row.read_ms, 1), round(row.write_ms, 1),
          round(row.stale, 3), row.linearizable] for row in rows],
        title=f"consistency spectrum, EU client, replicas on "
              f"{'/'.join(SITES)} (reads per write: {reads_per_round})",
    )
