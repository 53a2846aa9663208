"""The consistency spectrum, measured: five protocols, one geo layout.

Five replication designs serve the same read/write workload across
us-east / eu / asia, with the client in the EU:

* eventual       — Dynamo quorums, R=W=1
* quorum R+W>N   — Dynamo quorums, R=W=2
* timeline       — PNUTS per-record master (reads local, writes remote)
* session (RYW)  — timeline + read-your-writes client floors
* strong (Paxos) — Multi-Paxos log, leader in us-east
* strong (chain) — chain replication across the three sites

For each we report client-observed latency and what the checkers say
— the tutorial's central table, produced by measurement instead of
citation.

Run:  python examples/geo_replication.py
      python examples/geo_replication.py --trace geo.trace.jsonl
      REPRO_TRACE=geo.trace.jsonl python examples/geo_replication.py

With tracing enabled, the eventual-consistency run records every
executed event, message send/deliver/drop and protocol annotation;
the dump is summarized with ``python -m repro trace geo.trace.jsonl``.
"""

import os
import sys

from repro import Network, Simulator
from repro.analysis import render_table
from repro.api import registry
from repro.checkers import check_linearizability, stale_read_fraction
from repro.client import SessionClient
from repro.sim import THREE_CONTINENTS
from repro.workload import OpSpec, WorkloadDriver

SITES = ("us-east", "eu", "asia")
CLIENT_SITE = "eu"
ROUNDS = 15


def geo_network(sim, node_ids, client_ids, extra=()):
    placement = {}
    for index, node_id in enumerate(node_ids):
        placement[node_id] = SITES[index % len(SITES)]
    for client_id in client_ids:
        placement[client_id] = CLIENT_SITE
    for node_id, site in extra:
        placement[node_id] = site
    return Network(
        sim, latency=THREE_CONTINENTS.latency_model(placement, jitter=0.05)
    )


def writes(rounds=ROUNDS):
    return [OpSpec("update", f"key-{i % 3}", f"v{i}") for i in range(rounds)]


def reads(rounds=ROUNDS):
    return [OpSpec("read", f"key-{i % 3}") for i in range(rounds)]


def drive(sim, session, rounds=ROUNDS):
    """Write a key, read it back, 5 ms apart; returns the history the
    workload driver recorded."""
    ops = [spec for pair in zip(writes(rounds), reads(rounds))
           for spec in pair]
    driver = WorkloadDriver(sim)
    driver.add_session(session, ops, think_time=5.0)
    return driver.run()


def row(label, result):
    history = result.history
    return [label, round(result.read_latency.mean, 1),
            round(result.write_latency.mean, 1),
            round(stale_read_fraction(history), 3),
            check_linearizability(history).ok]


def run_dynamo(r, w, label, seed=1, remote_reader=False, tracer=None):
    sim = Simulator(seed=seed, tracer=tracer)
    ids = [f"dyn{i}" for i in range(3)]
    client_ids = ["dclient-1"]
    extra = []
    if remote_reader:
        extra.append(("dclient-2", "asia"))
    net = geo_network(sim, ids, client_ids, extra=extra)
    store = registry.build("quorum", sim, net, nodes=3, n=3, r=r, w=w,
                           node_ids=ids, op_deadline=2_000.0,
                           client_timeout=4_000.0)
    session = store.session(coordinator="dyn1")  # the EU node is local
    if remote_reader:
        # A second user in Asia reads through their local node while
        # the EU user writes: the eventual-consistency anomaly is in
        # *their* reads, racing the asynchronous replication.
        driver = WorkloadDriver(sim)
        driver.add_session(session, writes(), think_time=10.0)
        driver.add_session(store.session(coordinator="dyn2"),
                           [OpSpec("sleep", "", 2.0)] + reads(),
                           think_time=10.0)
        result = driver.run()
    else:
        result = drive(sim, session)
    if tracer is not None:
        # Show what the observability layer collected for this run.
        print("metrics registry for the traced run "
              f"({label}):\n{sim.metrics.render(prefix='quorum')}\n")
    return row(label, result)


def run_timeline(with_session, label, seed=1):
    sim = Simulator(seed=seed)
    ids = [f"tl{i}" for i in range(3)]
    net = geo_network(sim, ids, ["tlclient-1"], extra=[("tl0-fwd", "us-east")])
    store = registry.build("timeline", sim, net, nodes=3,
                           propagation_delay=20.0, node_ids=ids)
    for i in range(3):
        store.set_master(f"key-{i}", "tl0")   # mastered in us-east
    # EU reads local; the session layer adds read-your-writes and
    # monotonic-read floors over the same local reads.
    session = store.session(home="tl1")
    if with_session:
        session = SessionClient(sim, session, ("ryw", "mr"))
    return row(label, drive(sim, session))


def run_strong(name, label, node_prefix, client_id, seed=1):
    sim = Simulator(seed=seed)
    ids = [f"{node_prefix}{i}" for i in range(3)]
    net = geo_network(sim, ids, [client_id])
    store = registry.build(name, sim, net, nodes=3, node_ids=ids)
    return row(label, drive(sim, store.session()))


def table(tracer=None) -> str:
    """The results table: one row per rung, walking up the spectrum."""
    rows = [
        run_dynamo(1, 1, "eventual (R=W=1)", tracer=tracer),
        run_dynamo(1, 1, "eventual + far reader", remote_reader=True),
        run_dynamo(2, 2, "quorum (R=W=2)"),
        run_timeline(False, "timeline (read local)"),
        run_timeline(True, "session RYW+MR"),
        run_strong("multipaxos", "strong (paxos)", "px", "pxclient-1"),
        run_strong("chain", "strong (chain)", "ch", "chclient-1"),
    ]
    return render_table(
        ["protocol", "read ms", "write ms", "stale reads", "linearizable"],
        rows,
        title=f"EU client, replicas in {', '.join(SITES)}",
    )


def main(trace_path=None) -> None:
    print(__doc__)
    tracer = None
    if trace_path:
        from repro.sim import Tracer

        tracer = Tracer()
    text = table(tracer)
    print()
    print(text)
    print(
        "\nReading down the table is walking up the tutorial's spectrum:"
        "\neach rung buys anomalies away with round trips."
    )
    if tracer is not None:
        count = tracer.dump_jsonl(trace_path)
        summary = tracer.message_summary()
        print(f"\nwrote {count} trace events to {trace_path} "
              f"({len(summary)} message types); inspect with:")
        print(f"  python -m repro trace {trace_path} --summary-only")


if __name__ == "__main__":
    # Lightweight arg handling so the script stays runnable through
    # `python -m repro run geo_replication` (which leaves foreign argv).
    trace_path = os.environ.get("REPRO_TRACE")
    argv = sys.argv[1:]
    if "--trace" in argv and argv.index("--trace") + 1 < len(argv):
        trace_path = argv[argv.index("--trace") + 1]
    main(trace_path=trace_path)
