"""E3 ("Table 1"): session guarantees remove exactly their anomalies.

Claim: under a lagging eventually consistent store, sessions that read
any replica see RYW and MR violations; enabling each guarantee drives
its violation rate to zero at a measurable latency cost (retry/wait).

Each store session is wrapped in a :class:`~repro.client.SessionClient`
(with no guarantees for the baseline) and driven by the shared workload
driver; all lanes record into one driver history, which the session
checkers consume.  The wrapper reaches any store: a Dynamo lane (R=W=1,
random coordinators) shows the same floors removing read-your-writes
violations over Lamport-stamp tokens.
"""

import pytest

from common import emit
from repro import Network, Simulator
from repro.analysis import render_table
from repro.api import registry
from repro.checkers import ALL_SESSION_GUARANTEES, check_all_session_guarantees
from repro.client import SessionClient
from repro.sim import ExponentialLatency
from repro.workload import OpSpec, WorkloadDriver

OPS_PER_SESSION = 12
SESSIONS = 4
DYNAMO_SEEDS = range(10)


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
        session = SessionClient(sim, store.session(f"s{index}", home=home),
                                guarantees, retry_delay=8.0)
        driver.add_session(session, session_ops(key))
    result = driver.run()

    verdicts = check_all_session_guarantees(result.history)
    return verdicts, result.read_latency.mean


def run_dynamo(guarantees, seed):
    """The same sessions over Dynamo quorums, N=3 of 4 nodes, R=W=1,
    each op through a random coordinator: ``(verdicts, stale replies
    the floors refused)``."""
    sim = Simulator(seed=seed)
    net = Network(sim, latency=ExponentialLatency(base=1.0, mean=3.0))
    store = registry.build("quorum", sim, net, nodes=4, n=3, r=1, w=1,
                           coordinator_policy="random")
    driver = WorkloadDriver(sim)
    sessions = [
        SessionClient(sim, store.session(f"s{index}"), guarantees,
                      retry_delay=8.0)
        for index in range(SESSIONS)
    ]
    for index, session in enumerate(sessions):
        driver.add_session(session, session_ops(f"key-{index}"))
    result = driver.run()
    refused = sum(s.stats.reads_rejected_stale for s in sessions)
    return check_all_session_guarantees(result.history), refused


def dynamo_lane(guarantees):
    """Violation and checked-op counts per guarantee, and stale replies
    refused, summed over :data:`DYNAMO_SEEDS`."""
    violations = dict.fromkeys(ALL_SESSION_GUARANTEES, 0)
    checked = dict.fromkeys(ALL_SESSION_GUARANTEES, 0)
    refused = 0
    for seed in DYNAMO_SEEDS:
        verdicts, stale = run_dynamo(guarantees, seed)
        refused += stale
        for name, verdict in verdicts.items():
            violations[name] += verdict.violation_count
            checked[name] += verdict.checked_ops
    return violations, checked, refused


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

    # The same wrapper over a leaderless store: Lamport-stamp floors.
    # (No latency claim here: the wrapped runs draw a different RNG
    # stream, and at some seeds they come out faster.)
    bare, checked, _ = dynamo_lane(())
    wrapped, _, refused = dynamo_lane(("ryw", "mr"))
    emit(capsys, render_table(
        ["guarantee", "violations (none)", "checked ops",
         "violations (ryw+mr on)"],
        [[name, bare[name], checked[name], wrapped[name]]
         for name in ALL_SESSION_GUARANTEES],
        title=f"E3: Dynamo lane, R=W=1, N=3 on 4 nodes, random coordinator, "
              f"seeds 0-{DYNAMO_SEEDS[-1]} ({refused} stale replies refused)",
    ))
    assert bare["read-your-writes"] > 0
    assert wrapped["read-your-writes"] == 0
    assert wrapped["monotonic-reads"] == 0

    benchmark.pedantic(run_sessions, args=(("ryw", "mr"),),
                       rounds=2, iterations=1)
