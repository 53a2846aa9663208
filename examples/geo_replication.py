"""The consistency spectrum, measured: seven stores, eleven rungs, one
geo layout.

Seven replication designs serve the same write-then-read workload
across us-east / eu / asia, with the client in the EU
(:mod:`repro.scenarios.spectrum`, the table ``python -m repro
spectrum`` prints):

* quorum         — Dynamo quorums: R=W=1, alone and with a far reader
                   in Asia; R=W=2
* causal         — COPS-style causal+, alone and with a far reader
* timeline       — PNUTS per-record master in us-east, reads local; and
                   the session rung, with read-your-writes and
                   monotonic-read floors over the same local reads
* pileus         — SLA-driven reads over the timeline replicas
* primary_backup — asynchronous backups
* multipaxos     — strong: a Multi-Paxos log
* chain          — strong: chain replication

For each we report client-observed latency and what the checkers say
— the tutorial's central table, produced by measurement instead of
citation.

Run:  python examples/geo_replication.py
      python examples/geo_replication.py --trace geo.trace.jsonl
      REPRO_TRACE=geo.trace.jsonl python examples/geo_replication.py

With tracing enabled, the eventual-consistency rung runs once more on
a traced simulator, which records every executed event, message
send/deliver/drop and protocol annotation; the dump is summarized with
``python -m repro trace geo.trace.jsonl``.
"""

import os
import sys

from repro import Simulator
from repro.scenarios.spectrum import (
    ROUNDS,
    RUNGS,
    SEED,
    format_spectrum,
    run_rung,
    run_spectrum,
    rw_ops,
)
from repro.sim import Tracer


def main(trace_path=None) -> None:
    print(__doc__)
    print(format_spectrum(run_spectrum(SEED, ROUNDS, 1), 1))
    print(
        "\nReading down the table is walking up the tutorial's spectrum:"
        "\neach rung buys anomalies away with round trips."
    )
    if trace_path:
        tracer = Tracer()
        sim = Simulator(seed=SEED, tracer=tracer)
        run_rung(RUNGS[0], sim, rw_ops(ROUNDS, 1))
        # Show what the observability layer collected for this run.
        print(f"\nmetrics registry for the traced run ({RUNGS[0].label}):\n"
              f"{sim.metrics.render(prefix='quorum')}")
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
