"""The checkers against the implementations they replaced, and scale
guards.

The causal oracle below is the previous implementation, kept verbatim
apart from reading the history through the scan-and-sort view
definitions in ``test_histories`` instead of `History`'s indexes: a
set-union fixpoint over ``list[set[int]]`` followed by the read pass.
It is cubic-ish and lives only here.  The shipped checker must agree
with it on ``ok``, ``checked_ops``, the number of violations and which
op each one is about; *which* superseding write a violation names is
the one thing the oracle leaves to set iteration order and the shipped
checker defines.

The linearizability and sequential-consistency oracles are the
recursive memoized searches the iterative ones replaced, kept verbatim.
They recurse once per op, so they only run on small histories; there
the shipped checkers must return the same verdict text.
"""

import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import registry
from repro.checkers import (
    ALL_SESSION_GUARANTEES,
    check_all_session_guarantees,
    check_causal,
    check_linearizability,
    check_sequential,
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
# The linearizability and sequential oracles: the recursive searches
# ----------------------------------------------------------------------

_INFINITY = math.inf


def oracle_check_single_key(key, ops, max_states):
    """None if linearizable, else a violation description."""
    if not ops:
        return None
    # A read with no response constrains nothing.
    reads = [op for op in ops if op.is_read and op.completed]
    writes = [op for op in ops if op.is_write]

    candidates = reads + writes
    id_to_op = {op.op_id: op for op in candidates}
    end_of = {
        op.op_id: (op.end if op.completed else _INFINITY) for op in candidates
    }
    start_of = {op.op_id: op.start for op in candidates}
    pending_write_ids = frozenset(
        op.op_id for op in writes if not op.completed
    )

    all_ids = frozenset(id_to_op)
    seen_states: set[tuple[frozenset, int]] = set()
    budget = [max_states]

    def dfs(remaining: frozenset, version: int) -> bool:
        if not remaining:
            return True
        state = (remaining, version)
        if state in seen_states:
            return False
        if budget[0] <= 0:
            return False
        budget[0] -= 1
        seen_states.add(state)
        # An op may be linearized first among `remaining` iff no other
        # remaining op responded before it was invoked.
        frontier = min(end_of[op_id] for op_id in remaining)
        for op_id in remaining:
            if start_of[op_id] > frontier:
                continue
            op = id_to_op[op_id]
            rest = remaining - {op_id}
            if op.is_read:
                if op.version == version and dfs(rest, version):
                    return True
            else:
                if dfs(rest, op.version):
                    return True
                # A write with no response may also never take effect.
                if op_id in pending_write_ids and dfs(rest, version):
                    return True
        return False

    ok = dfs(all_ids, 0)
    if ok:
        return None
    if budget[0] <= 0:
        return (
            f"key {key!r}: undecided — state budget exhausted "
            f"({max_states} states)"
        )
    return f"key {key!r}: no linearization of {len(candidates)} ops exists"


def oracle_check_linearizability(history, max_states=2_000_000):
    verdict = Verdict("linearizability")
    verdict.checked_ops = len(history.completed)
    for key in history.keys:
        result = oracle_check_single_key(key, history.by_key(key), max_states)
        if result is not None:
            verdict.add(result, ops=())
    return verdict


def oracle_check_sequential(history, max_states=2_000_000):
    """Is there a legal sequentially consistent total order?"""
    verdict = Verdict("sequential-consistency")
    sessions = [history.by_session(s) for s in history.sessions]
    sessions = [ops for ops in sessions if ops]
    verdict.checked_ops = sum(len(ops) for ops in sessions)
    if not sessions:
        return verdict

    # Register state: one version per key, at the key's position in the
    # history's key order, so a write step is one tuple splice.
    slot = {key: index for index, key in enumerate(history.keys)}
    seen: set[tuple] = set()
    budget = [max_states]

    def dfs(positions: tuple[int, ...], versions: tuple[int, ...]) -> bool:
        if all(
            position == len(session)
            for position, session in zip(positions, sessions)
        ):
            return True
        state = (positions, versions)
        if state in seen or budget[0] <= 0:
            return False
        budget[0] -= 1
        seen.add(state)
        for index, session in enumerate(sessions):
            position = positions[index]
            if position == len(session):
                continue
            op = session[position]
            next_positions = (
                positions[:index] + (position + 1,) + positions[index + 1:]
            )
            at = slot[op.key]
            if op.is_read:
                if versions[at] == op.version:
                    if dfs(next_positions, versions):
                        return True
            else:
                written = versions[:at] + (op.version,) + versions[at + 1:]
                if dfs(next_positions, written):
                    return True
        return False

    ok = dfs((0,) * len(sessions), (0,) * len(slot))
    if not ok:
        if budget[0] <= 0:
            verdict.add(
                f"undecided — state budget exhausted ({max_states} states)"
            )
        else:
            verdict.add("no sequentially consistent total order exists")
    return verdict


def assert_search_agrees(check, oracle, history):
    """Same ``ok``, ``checked_ops``, violation count and texts, unless
    the oracle ran out of budget (then it decided nothing to compare)."""
    new, old = check(history), oracle(history)
    texts = [str(v) for v in old.violations]
    if any("undecided" in text for text in texts):
        return new
    assert new.ok == old.ok
    assert new.checked_ops == old.checked_ops
    assert new.violation_count == old.violation_count
    assert [str(v) for v in new.violations] == texts
    return new


def assert_searches_agree(history):
    assert_search_agrees(check_linearizability, oracle_check_linearizability,
                         history)
    assert_search_agrees(check_sequential, oracle_check_sequential, history)


@given(rows=st.lists(soup_op_st, max_size=24))
@settings(max_examples=300, deadline=None)
def test_searches_agree_on_arbitrary_histories(rows):
    # Pending ops, reads of versions nobody wrote, duplicate versions,
    # equal instants and start == end all come up in the soup.
    assert_searches_agree(soup_history(rows))


@given(rows=st.lists(soup_op_st, max_size=16))
@settings(max_examples=200, deadline=None)
def test_searches_agree_on_single_key_histories(rows):
    assert_searches_agree(soup_history(
        (is_write, 0, *rest) for is_write, _, *rest in rows
    ))


concurrent_op_st = st.tuples(
    st.booleans(),                      # write?
    st.integers(0, 1),                  # key
    st.integers(0, 3),                  # session
    st.integers(0, 10),                 # start
    st.one_of(st.none(), st.integers(0, 4)),   # duration; None = no response
    st.integers(0, 4),                  # takes effect at start + this/4 * duration
    st.booleans(),                      # a write with no response takes effect?
)


def register_history(rows, corrupt=()):
    """An atomic register run over overlapping intervals: each op takes
    effect at a point inside its interval (a write with no response at a
    point after its invocation, or never), so the result is
    linearizable.  Ops whose index is in ``corrupt`` then carry the
    paired version instead, which may or may not break that."""
    corrupt = dict(corrupt)
    points = []
    for index, (is_write, key, session, start, duration, at, applied) in (
            enumerate(rows)):
        span = 4 if duration is None else duration
        if is_write and duration is None and not applied:
            point = _INFINITY
        else:
            point = start + span * at / 4
        points.append((point, index))
    current, version_of = {}, {}
    for point, index in sorted(points):
        is_write, key, *_ = rows[index]
        if is_write:
            current[key] = version_of[index] = current.get(key, 0) + 1
        else:
            version_of[index] = current.get(key, 0)
    return History(
        (make_write if is_write else make_read)(
            key, corrupt.get(index, version_of[index]), session=session,
            start=float(start),
            end=None if duration is None else float(start + duration),
        )
        for index, (is_write, key, session, start, duration, _, _) in (
            enumerate(rows))
    )


@given(rows=st.lists(concurrent_op_st, min_size=1, max_size=20))
@settings(max_examples=200, deadline=None)
def test_searches_agree_on_concurrent_register_histories(rows):
    history = register_history(rows)
    assert check_linearizability(history).ok
    assert_searches_agree(history)


@given(
    rows=st.lists(concurrent_op_st, min_size=1, max_size=20),
    corrupt=st.lists(st.tuples(st.integers(0, 19), st.integers(0, 5)),
                     min_size=1, max_size=3),
)
@settings(max_examples=300, deadline=None)
def test_searches_agree_on_corrupted_register_histories(rows, corrupt):
    assert_searches_agree(register_history(rows, corrupt))


@pytest.mark.parametrize("protocol, opts", [
    ("multipaxos", {}),
    ("causal", {}),
    ("quorum", {"r": 1, "w": 1}),
])
@pytest.mark.parametrize("seed", range(3))
def test_searches_agree_on_recorded_histories(protocol, opts, seed):
    history = ycsb_history(seed, clients=8, records=20, ops=200,
                           protocol=protocol, **opts)
    assert_search_agrees(check_linearizability, oracle_check_linearizability,
                         history)


def test_budget_exhaustion_reads_as_in_the_oracle():
    history = History(
        [make_write("k", i, session=f"w{i}", start=0.0, end=100.0)
         for i in range(1, 9)]
        + [make_read("k", 0, start=101.0, end=102.0)]
    )
    for check in (check_linearizability, oracle_check_linearizability):
        assert [str(v) for v in check(history, max_states=5).violations] == [
            "[linearizability] key 'k': undecided — state budget exhausted "
            "(5 states)"
        ]
    for check in (check_sequential, oracle_check_sequential):
        assert [str(v) for v in check(history, max_states=3).violations] == [
            "[sequential-consistency] undecided — state budget exhausted "
            "(3 states)"
        ]


# ----------------------------------------------------------------------
# Scale guards: wide margins, so they cannot be noisy
# ----------------------------------------------------------------------

def test_linearizability_of_a_2000_op_key_takes_under_half_a_second():
    # One writer and one reader on one key, one op at a time.  The
    # recursive search raised RecursionError here (a frame per op); the
    # iterative one takes about 5 ms.
    ops = []
    for i in range(1000):
        ops.append(make_write("k", i + 1, session="w",
                              start=4.0 * i, end=4.0 * i + 1.0))
        ops.append(make_read("k", i + 1, session="r",
                             start=4.0 * i + 2.0, end=4.0 * i + 3.0))
    history = History(ops)
    start = time.perf_counter()
    verdict = check_linearizability(history)
    elapsed = time.perf_counter() - start
    assert verdict.ok and verdict.checked_ops == 2000
    assert elapsed < 0.5, f"check_linearizability took {elapsed:.2f} s"


def test_sequential_check_of_e11s_1100_op_benign_history_takes_under_5_s():
    # E11's benign history: a writer session and a reader session over
    # five keys.  The recursive search raised RecursionError past about
    # 1,000 ops; the iterative one takes about 0.45 s.
    ops = []
    for i in range(550):
        key, version, t = f"k{i % 5}", i // 5 + 1, 4.0 * i
        ops.append(make_write(key, version, session="w", start=t, end=t + 1.0))
        ops.append(make_read(key, version, session="r",
                             start=t + 2.0, end=t + 3.0))
    history = History(ops)
    start = time.perf_counter()
    verdict = check_sequential(history)
    elapsed = time.perf_counter() - start
    assert verdict.ok and verdict.checked_ops == 1100
    assert elapsed < 5.0, f"check_sequential took {elapsed:.2f} s"


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
