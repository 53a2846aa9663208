"""Quickstart: a Dynamo-style store in five minutes.

Builds a 5-node partial-quorum store, runs a read/write session, shows
how the R/W knobs change what the checkers say, and prints the
recorded history verdicts.

Run:  python examples/quickstart.py
"""

from repro import Network, Simulator
from repro.analysis import print_table
from repro.api import registry
from repro.checkers import check_linearizability, stale_read_fraction
from repro.sim import ExponentialLatency
from repro.workload import OpSpec, WorkloadDriver


def run_quorum_config(r: int, w: int, seed: int = 42):
    """One writer + one reader racing on a hot key."""
    sim = Simulator(seed=seed)
    net = Network(sim, latency=ExponentialLatency(base=0.5, mean=8.0))
    store = registry.build(
        "quorum", sim, net, nodes=5, n=3, r=r, w=w,
        coordinator_policy="random", read_repair=False,
    )
    # The driver runs each session's ops closed-loop and records every
    # op once, at the store boundary: that history is what the
    # checkers read.
    driver = WorkloadDriver(sim)
    driver.add_session(
        store.session("writer"),
        [OpSpec("update", "hot-key", f"value-{i}") for i in range(25)],
        think_time=4.0,
    )
    driver.add_session(
        store.session("reader"),
        [OpSpec("sleep", "", 2.0)] + [OpSpec("read", "hot-key")] * 30,
        think_time=3.5,
    )
    history = driver.run().history

    lin = check_linearizability(history)
    latencies = [op.end - op.start for op in history.completed]
    mean_latency = sum(latencies) / len(latencies)
    return {
        "r": r,
        "w": w,
        "overlap": "yes" if r + w > store.n else "no",
        "mean_latency_ms": round(mean_latency, 2),
        "stale_read_frac": round(stale_read_fraction(history), 3),
        "linearizable": lin.ok,
    }


def main() -> None:
    print(__doc__)
    rows = []
    for r, w in [(1, 1), (1, 3), (2, 2), (3, 3)]:
        result = run_quorum_config(r, w)
        rows.append([
            f"R={result['r']} W={result['w']}",
            result["overlap"],
            result["mean_latency_ms"],
            result["stale_read_frac"],
            result["linearizable"],
        ])
    print_table(
        ["config (N=3)", "R+W>N", "mean latency (ms)", "stale reads",
         "linearizable"],
        rows,
        title="Partial quorums: the consistency/latency dial",
    )
    print(
        "\nTakeaway: R+W>N buys overlap (fresh, checkable reads) at the"
        "\ncost of waiting for more replicas; R=W=1 is fastest and stale."
    )


if __name__ == "__main__":
    main()
