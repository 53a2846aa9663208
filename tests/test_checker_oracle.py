"""`check_causal` against the closure it replaced, and scale guards.

The oracle below is the previous implementation, kept verbatim apart
from reading the history through the scan-and-sort view definitions in
``test_histories`` instead of `History`'s indexes: a set-union fixpoint
over ``list[set[int]]`` followed by the read pass.  It is cubic-ish and
lives only here.  The shipped checker must agree with it on ``ok``,
``checked_ops``, the number of violations and which op each one is
about; *which* superseding write a violation names is the one thing the
oracle leaves to set iteration order and the shipped checker defines.
"""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import registry
from repro.checkers import (
    ALL_SESSION_GUARANTEES,
    check_all_session_guarantees,
    check_causal,
)
from repro.checkers.base import Verdict
from repro.histories import History, make_read, make_write
from repro.sim import ExponentialLatency, Network, Simulator
from repro.workload import OpenLoopDriver, PoissonArrivals, YCSBWorkload

from .test_causal_store import ycsb_history
from .test_histories import (
    scan_by_session,
    scan_completed,
    scan_keys,
    scan_sessions,
)


# ----------------------------------------------------------------------
# The oracle: the parent commit's checker
# ----------------------------------------------------------------------

def _oracle_causal_order(history):
    ops = scan_completed(history)
    index_of = {op.op_id: i for i, op in enumerate(ops)}
    n = len(ops)
    direct = [set() for _ in range(n)]

    for session in scan_sessions(history):
        session_ops = scan_by_session(history, session)
        for earlier, later in zip(session_ops, session_ops[1:]):
            direct[index_of[later.op_id]].add(index_of[earlier.op_id])

    writes_by_key_version = {}
    for i, op in enumerate(ops):
        if op.is_write:
            writes_by_key_version[(op.key, op.version)] = i
    for i, op in enumerate(ops):
        if op.is_read and op.version > 0:
            writer = writes_by_key_version.get((op.key, op.version))
            if writer is not None:
                direct[i].add(writer)

    for key in scan_keys(history):
        key_writes = sorted(
            (op for op in ops if op.is_write and op.key == key),
            key=lambda op: op.version,
        )
        for earlier, later in zip(key_writes, key_writes[1:]):
            direct[index_of[later.op_id]].add(index_of[earlier.op_id])

    closed = [set(edges) for edges in direct]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            additions = set()
            for j in closed[i]:
                additions |= closed[j] - closed[i]
            if additions:
                closed[i] |= additions
                changed = True
    return ops, closed, writes_by_key_version


def oracle_check_causal(history):
    verdict = Verdict("causal-consistency")
    ops, predecessors, index_writes = _oracle_causal_order(history)
    for i, op in enumerate(ops):
        if i in predecessors[i]:
            verdict.add(f"causality cycle through {op!r}", ops=(op,))
    for i, op in enumerate(ops):
        if not op.is_read:
            continue
        verdict.checked_ops += 1
        returned = index_writes.get((op.key, op.version))
        for j in predecessors[i]:
            other = ops[j]
            if not (other.is_write and other.key == op.key):
                continue
            if other.version == op.version:
                continue
            if returned is None:
                if op.version == 0:
                    verdict.add(
                        f"read of initial {op.key!r} despite causally "
                        f"preceding write v{other.version}",
                        ops=(op, other),
                    )
                    break
                continue
            if returned in predecessors[j]:
                verdict.add(
                    f"read {op.key!r}=v{op.version} superseded by causally "
                    f"preceding write v{other.version}",
                    ops=(op, other),
                )
                break
    return verdict


def _about(verdict):
    """Which op each violation is about, and whether it is a cycle."""
    return [
        (violation.description.startswith("causality cycle"),
         violation.ops[0].op_id)
        for violation in verdict.violations
    ]


def assert_agrees_with_oracle(history):
    new, old = check_causal(history), oracle_check_causal(history)
    assert new.ok == old.ok
    assert new.checked_ops == old.checked_ops
    assert new.violation_count == old.violation_count
    assert _about(new) == _about(old)
    return new


# ----------------------------------------------------------------------
# Hypothesis histories: consistent, stale-read-injected, cyclic, soup
# ----------------------------------------------------------------------

script_st = st.lists(
    st.tuples(st.integers(0, 3), st.booleans(), st.integers(0, 2)),
    min_size=1, max_size=40,
)


def register_ops(script, stale=frozenset()):
    """``script`` (session, is_write, key) run against an atomic
    register, one op at a time; reads whose index is in ``stale``
    return the version before the current one instead."""
    current, ops = {}, []
    for index, (session, is_write, key) in enumerate(script):
        start = 2.0 * index
        if is_write:
            current[key] = current.get(key, 0) + 1
            ops.append(make_write(key, current[key], session=session,
                                  start=start, end=start + 1.0))
        else:
            version = current.get(key, 0)
            if index in stale and version:
                version -= 1
            ops.append(make_read(key, version, session=session,
                                 start=start, end=start + 1.0))
    return ops


@given(script=script_st)
@settings(max_examples=80, deadline=None)
def test_oracle_agrees_on_consistent_histories(script):
    assert assert_agrees_with_oracle(History(register_ops(script))).ok


@given(script=script_st, stale=st.frozensets(st.integers(0, 39), max_size=6))
@settings(max_examples=120, deadline=None)
def test_oracle_agrees_on_stale_read_injection(script, stale):
    assert_agrees_with_oracle(History(register_ops(script, stale)))


@given(script=script_st, data=st.data())
@settings(max_examples=120, deadline=None)
def test_oracle_agrees_on_cycles(script, data):
    """Reads-from against session order: a session reads a version and
    only afterwards writes it, so the write precedes the read (reads-
    from) and the read precedes the write (program order)."""
    ops = register_ops(script)
    end = 2.0 * len(ops)
    for n in range(data.draw(st.integers(1, 3))):
        session = data.draw(st.integers(0, 3))
        key = data.draw(st.integers(0, 2))
        version = 100 + n
        ops.append(make_read(key, version, session=session,
                             start=end, end=end + 1.0))
        ops.append(make_write(key, version, session=session,
                              start=end + 2.0, end=end + 3.0))
        end += 4.0
    verdict = assert_agrees_with_oracle(History(ops))
    assert any(cycle for cycle, _ in _about(verdict))


soup_op_st = st.tuples(
    st.booleans(),                      # write?
    st.integers(0, 2),                  # key
    st.integers(0, 4),                  # version (duplicates on purpose)
    st.integers(0, 3),                  # session
    st.integers(0, 12),                 # start (duplicates on purpose)
    st.one_of(st.none(), st.integers(0, 4)),   # duration; None = no response
)


def soup_history(rows):
    return History([
        (make_write if is_write else make_read)(
            key, version, session=session, start=float(start),
            end=None if duration is None else float(start + duration),
        )
        for is_write, key, version, session, start, duration in rows
    ])


@given(rows=st.lists(soup_op_st, max_size=30))
@settings(max_examples=300, deadline=None)
def test_oracle_agrees_on_arbitrary_histories(rows):
    assert_agrees_with_oracle(soup_history(rows))


# ----------------------------------------------------------------------
# Recorded histories
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(20))
def test_oracle_agrees_on_recorded_causal_histories(seed):
    history = ycsb_history(seed, clients=16, records=100, ops=300)
    assert_agrees_with_oracle(history)


@pytest.mark.parametrize("seed", [29, 75])
def test_oracle_agrees_on_the_open_finding(seed):
    # The two seeds on which the causal store's history fails the
    # checker (see test_causal_store): both implementations say so.
    history = ycsb_history(seed, clients=16, records=100)
    verdict = assert_agrees_with_oracle(history)
    assert verdict.violation_count == 1


# ----------------------------------------------------------------------
# Naming: which superseding write a violation blames
# ----------------------------------------------------------------------

def test_violation_names_the_earliest_superseding_write():
    """A read superseded by two causally preceding writes names the one
    with the lowest history index, however the history was put together.
    (On this history the set-iterating checker named v3: the read's
    predecessor indices {0, 1, 2, 8} collide in an 8-slot table.)"""
    ops = [
        make_write("k", version, session=f"w{version}",
                   start=2.0 * version, end=2.0 * version + 1.0)
        for version in (1, 2, 3)
    ] + [
        make_write("unrelated", n, session=f"u{n}", start=10.0 + n, end=11.0 + n)
        for n in range(1, 6)
    ] + [
        make_read("k", 3, session="r", start=20.0, end=21.0),
        make_read("k", 1, session="r", start=22.0, end=23.0),
    ]
    constructions = (
        History(ops),
        History(reversed(ops)),
        History(ops[4:]).extend(ops[:4]),
    )
    for history in constructions:
        verdict = check_causal(history)
        assert [str(v) for v in verdict.violations] == [
            "[causal-consistency] read 'k'=v1 superseded by causally "
            "preceding write v2"
        ]
        assert verdict.violations[0].ops == (ops[-1], ops[1])


# ----------------------------------------------------------------------
# Scale guards: wide margins, so they cannot be noisy
# ----------------------------------------------------------------------

def test_causal_check_of_a_2400_op_history_takes_under_two_seconds():
    # The benchmark's `quorum_closed` shape.  The fixpoint closure took
    # about 50 s here; the topological bitset closure about 0.03 s.
    history = ycsb_history(42, clients=24, records=500, ops=2400,
                           protocol="quorum", r=2, w=2)
    assert len(history) == 2400
    start = time.perf_counter()
    verdict = check_causal(history)
    elapsed = time.perf_counter() - start
    assert verdict.checked_ops > 1000
    assert elapsed < 2.0, f"check_causal took {elapsed:.2f} s"


def test_session_checks_of_456_sessions_take_under_25_ms():
    # The benchmark's `openloop_overload` shape: 1200 ops spread over
    # some 456 sessions.  Scanning the history once per session took
    # about 88 ms for the four checkers; one index build plus four
    # passes takes about 5 ms.
    from repro.rpc import RetryPolicy

    seed = 42
    sim = Simulator(seed=seed)
    net = Network(sim, latency=ExponentialLatency(base=0.3, mean=1.0))
    store = registry.build(
        "quorum", sim, net, nodes=3, service_time=1.0, queue_limit=32,
        admission_rate=900.0, admission_burst=4.0,
    )
    driver = OpenLoopDriver(
        store, PoissonArrivals(rate=2200.0, seed=seed + 2),
        YCSBWorkload("B", records=100, seed=seed + 1), sessions=500,
        timeout=600_000.0, max_ops=1200, seed=seed + 3,
        retry=RetryPolicy(max_attempts=1_000, request_timeout=500.0,
                          backoff_base=2.0, backoff_max=40.0, jitter=0.5),
    )
    history = driver.run().history
    assert len(history) == 1200 and len(history.sessions) > 400
    best = float("inf")
    for _ in range(3):
        fresh = History(history)        # pay the index build every time
        start = time.perf_counter()
        verdicts = check_all_session_guarantees(fresh)
        best = min(best, time.perf_counter() - start)
    assert set(verdicts) == set(ALL_SESSION_GUARANTEES)
    assert best < 0.025, f"session checkers took {best * 1000:.1f} ms"
