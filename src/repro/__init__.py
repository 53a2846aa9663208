"""repro — an executable companion to *Rethinking Eventual Consistency*
(Bernstein & Das, SIGMOD 2013).

The package turns the tutorial's taxonomy of consistency guarantees
and replication mechanisms into running code:

* :mod:`repro.sim` — deterministic discrete-event simulator, lossy
  partitionable network, WAN topologies, generator-based clients.
* :mod:`repro.clocks` — Lamport / vector / version-vector / dotted
  clocks.
* :mod:`repro.crdt` — state-, op- and delta-based CRDTs.
* :mod:`repro.replication` — primary–backup, Dynamo quorums, gossip
  anti-entropy with Merkle trees, Multi-Paxos, PNUTS timelines,
  chain replication.
* :mod:`repro.client` — session guarantees as a client library.
* :mod:`repro.checkers` — linearizability / sequential / causal /
  session / staleness / convergence checkers over recorded histories.
* :mod:`repro.sla` — Pileus-style consistency SLAs.
* :mod:`repro.txn` — RedBlue and escrow.
* :mod:`repro.workload`, :mod:`repro.analysis` — generators, metrics,
  and the PBS staleness model.

Quickstart::

    from repro import Simulator, Network, spawn
    from repro.replication import DynamoCluster

    sim = Simulator(seed=7)
    net = Network(sim)
    cluster = DynamoCluster(sim, net, nodes=5, n=3, r=2, w=2)
    client = cluster.connect()

    def script():
        yield client.put("cart", ["milk"])
        value, _ = yield client.get("cart")
        print(value)

    spawn(sim, script())
    sim.run()
"""

from . import (
    analysis,
    api,
    checkers,
    clocks,
    client,
    crdt,
    errors,
    histories,
    placement,
    replication,
    rpc,
    sharding,
    sim,
    sla,
    txn,
    workload,
)
from .rpc import RetryPolicy
from .sim import Future, Network, Simulator, spawn

__version__ = "1.0.0"

__all__ = [
    "Simulator",
    "Network",
    "Future",
    "RetryPolicy",
    "spawn",
    "rpc",
    "sim",
    "clocks",
    "crdt",
    "histories",
    "checkers",
    "replication",
    "client",
    "sla",
    "txn",
    "workload",
    "analysis",
    "api",
    "placement",
    "sharding",
    "errors",
    "__version__",
]
