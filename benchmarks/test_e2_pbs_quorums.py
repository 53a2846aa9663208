"""E2 ("Figure 2"): PBS — staleness vs. partial quorum configuration.

Claims: (a) p[consistent] rises with R+W and with time-after-commit t;
(b) R+W>N eliminates staleness entirely; (c) operation latency rises
with quorum size.  Both an analytic Monte-Carlo (WARS model) and a
measured end-to-end simulation (the Dynamo cluster) reproduce the
shape.
"""

import pytest

from common import emit
from repro import Network, Simulator
from repro.analysis import (
    WARSModel,
    render_table,
    simulate_t_visibility,
)
from repro.api import registry
from repro.checkers import stale_read_fraction
from repro.sim import ExponentialLatency
from repro.workload import OpSpec, WorkloadDriver

CONFIGS = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (1, 3)]
T_VALUES = (0.0, 1.0, 5.0, 20.0)


def analytic_grid(n=3, trials=6000):
    rows = []
    for r, w in CONFIGS:
        row = {"r": r, "w": w}
        for t in T_VALUES:
            result = simulate_t_visibility(
                n, r, w, t, model=WARSModel.lan(), trials=trials, seed=3,
            )
            row[t] = result.p_consistent
        row["latency"] = result.mean_read_latency
        rows.append(row)
    return rows


def measured_stale_fraction(r, w, seed=5):
    """End-to-end measurement on the Dynamo simulator."""
    sim = Simulator(seed=seed)
    net = Network(sim, latency=ExponentialLatency(base=0.3, mean=6.0))
    store = registry.build("quorum", sim, net, nodes=5, n=3, r=r, w=w,
                           coordinator_policy="random", read_repair=False)
    driver = WorkloadDriver(sim)
    driver.add_session(store.session("w"),
                       [OpSpec("update", "hot", i) for i in range(60)],
                       think_time=3.0)
    reads = [OpSpec("sleep", "", 1.5)] + [OpSpec("read", "hot")] * 80
    driver.add_session(store.session("r"), reads, think_time=2.2)
    return stale_read_fraction(driver.run().history)


def test_e2_pbs(benchmark, capsys):
    grid = analytic_grid()
    emit(capsys, render_table(
        ["config (N=3)"] + [f"t={t:g}ms" for t in T_VALUES] + ["read ms"],
        [
            [f"R={row['r']} W={row['w']}" +
             (" *" if row["r"] + row["w"] > 3 else "")]
            + [round(row[t], 4) for t in T_VALUES]
            + [round(row["latency"], 2)]
            for row in grid
        ],
        title="E2a: analytic t-visibility (WARS Monte-Carlo, LAN profile;"
              " * = R+W>N)",
    ))

    by_config = {(row["r"], row["w"]): row for row in grid}
    # (a) monotone in t for the weak configs.
    weak = by_config[(1, 1)]
    assert weak[0.0] < weak[5.0] <= weak[20.0]
    # (a') monotone in quorum size at t=0.
    assert by_config[(1, 1)][0.0] < by_config[(2, 1)][0.0]
    assert by_config[(1, 1)][0.0] < by_config[(1, 2)][0.0]
    # (b) overlap ⇒ always consistent.
    assert by_config[(2, 2)][0.0] == 1.0
    assert by_config[(3, 1)][0.0] == 1.0
    assert by_config[(1, 3)][0.0] == 1.0
    # (c) latency grows with R.
    assert by_config[(3, 1)]["latency"] > by_config[(1, 1)]["latency"]

    measured = {
        (r, w): sum(measured_stale_fraction(r, w, seed=s) for s in (5, 6, 7)) / 3
        for (r, w) in [(1, 1), (2, 2)]
    }
    emit(capsys, render_table(
        ["config", "measured stale fraction (mean of 3 runs)"],
        [[f"R={r} W={w}", round(f, 4)] for (r, w), f in measured.items()],
        title="E2b: end-to-end staleness on the Dynamo simulator",
    ))
    # Measured shape agrees: weak config stale sometimes, overlap never.
    assert measured[(1, 1)] > measured[(2, 2)] == 0.0

    benchmark.pedantic(
        simulate_t_visibility,
        args=(3, 1, 1, 0.0),
        kwargs={"trials": 2000, "seed": 1},
        rounds=3, iterations=1,
    )
