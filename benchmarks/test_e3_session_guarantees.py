"""E3 ("Table 1"): session guarantees remove exactly their anomalies.

Claim: under a lagging eventually consistent store, sessions that read
any replica see RYW and MR violations; enabling each guarantee drives
its violation rate to zero at a measurable latency cost (retry/wait).

Sessions are created through the store API (``store.session(...,
guarantees=...)``) and driven by the shared workload driver; all lanes
record into one driver history, which the session checkers consume.
"""

import pytest

from common import emit
from repro import Network, Simulator
from repro.analysis import render_table
from repro.api import registry
from repro.checkers import ALL_SESSION_GUARANTEES, check_all_session_guarantees
from repro.sim import ExponentialLatency
from repro.workload import OpSpec, WorkloadDriver

OPS_PER_SESSION = 12
SESSIONS = 4


def session_ops(key):
    """Write own key, read it back, read the shared key — per round."""
    ops = []
    for i in range(OPS_PER_SESSION):
        ops += [
            OpSpec("update", key, f"{key}-v{i}"), OpSpec("sleep", "", 4.0),
            OpSpec("read", key), OpSpec("sleep", "", 4.0),
            OpSpec("read", "shared"), OpSpec("sleep", "", 4.0),
        ]
    return ops


def run_sessions(guarantees, seed=2, propagation_delay=80.0):
    """Sessions interleaving writes and reads on their own keys and a
    shared key, via non-master home replicas."""
    sim = Simulator(seed=seed)
    net = Network(sim, latency=ExponentialLatency(base=1.0, mean=3.0))
    store = registry.build("timeline", sim, net, nodes=4,
                           propagation_delay=propagation_delay)
    driver = WorkloadDriver(sim)
    for index in range(SESSIONS):
        key = f"key-{index}"
        master = store.master_of(key)
        home = next(n for n in store.node_ids if n != master)
        session = store.session(f"s{index}", home=home,
                                guarantees=guarantees, retry_delay=8.0)
        driver.add_session(session, session_ops(key))
    result = driver.run()

    verdicts = check_all_session_guarantees(result.history)
    return verdicts, result.read_latency.mean


def test_e3_session_guarantees(benchmark, capsys):
    baseline_verdicts, baseline_latency = run_sessions(())
    rows = []
    with_ryw_mr = run_sessions(("ryw", "mr"))
    for name in ALL_SESSION_GUARANTEES:
        base = baseline_verdicts[name]
        enforced = with_ryw_mr[0][name]
        rows.append([
            name,
            base.violation_count,
            base.checked_ops,
            enforced.violation_count,
        ])
    emit(capsys, render_table(
        ["guarantee", "violations (none)", "checked ops",
         "violations (ryw+mr on)"],
        rows,
        title="E3: session-guarantee anomaly counts, lagging timeline "
              "store (80ms propagation)",
    ))
    emit(capsys, render_table(
        ["mode", "mean read latency (ms)"],
        [["no guarantees", round(baseline_latency, 1)],
         ["ryw+mr enforced", round(with_ryw_mr[1], 1)]],
        title="E3: the price of the guarantees (read-side retries)",
    ))

    # Shape: anomalies exist without guarantees...
    assert baseline_verdicts["read-your-writes"].violation_count > 0
    # ...and the enforced run removes the read-side anomalies entirely.
    assert with_ryw_mr[0]["read-your-writes"].violation_count == 0
    assert with_ryw_mr[0]["monotonic-reads"].violation_count == 0
    # Single-master ordering gives MW/WFR for free in both runs.
    assert baseline_verdicts["monotonic-writes"].violation_count == 0
    assert baseline_verdicts["writes-follow-reads"].violation_count == 0
    # Enforcement costs latency.
    assert with_ryw_mr[1] > baseline_latency

    benchmark.pedantic(run_sessions, args=(("ryw", "mr"),),
                       rounds=2, iterations=1)
