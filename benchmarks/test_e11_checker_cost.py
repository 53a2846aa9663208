"""E11 ("Table 4"): what checking each guarantee costs.

Claims: (a) session-guarantee and causal checking scale polynomially
with history size; (b) linearizability checking is cheap on benign
(low-concurrency) histories but explodes exponentially on adversarial
highly concurrent single-key histories — the checker's state budget is
what keeps it usable.
"""

import time

import pytest

from common import emit
from repro.analysis import render_table
from repro.checkers import (
    check_causal,
    check_linearizability,
    check_read_your_writes,
    check_sequential,
)
from repro.histories import History, make_read, make_write


def benign_history(ops):
    """Sequential writer + trailing reads over several keys."""
    records = []
    t = 0.0
    for i in range(ops // 2):
        key = f"k{i % 5}"
        version = i // 5 + 1
        records.append(make_write(key, version, session="w",
                                  start=t, end=t + 1.0))
        records.append(make_read(key, version, session="r",
                                 start=t + 2.0, end=t + 3.0))
        t += 4.0
    return History(records)


def adversarial_history(writers):
    """All writes to one key, fully concurrent, then a read of the
    *initial* state — unsatisfiable, so the Wing–Gong search must
    exhaust every (memoized) interleaving before reporting it."""
    records = [
        make_write("k", i + 1, session=f"w{i}", start=0.0, end=1_000.0)
        for i in range(writers)
    ]
    records.append(make_read("k", 0, start=2_000.0, end=2_001.0))
    return History(records)


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, (time.perf_counter() - start) * 1000.0


def test_e11_checker_cost(benchmark, capsys):
    rows = []
    timings = {}
    for ops in (50, 200, 800, 3200):
        history = benign_history(ops)
        _, t_session = timed(check_read_your_writes, history)
        _, t_causal = timed(check_causal, history)
        _, t_lin = timed(check_linearizability, history)
        # The sequential search memoizes ~(ops/2)^2/2 interleavings of
        # the two sessions: charted to 800.
        t_seq = timed(check_sequential, history)[1] if ops <= 800 else None
        timings[ops] = {
            "session": t_session, "causal": t_causal,
            "lin": t_lin, "seq": t_seq,
        }
        rows.append([ops, round(t_session, 2), round(t_causal, 2),
                     round(t_lin, 2),
                     "-" if t_seq is None else round(t_seq, 2)])
    emit(capsys, render_table(
        ["history ops", "session ms", "causal ms", "linearizability ms",
         "sequential ms"],
        rows,
        title="E11a: checker runtime on benign histories",
    ))

    adv_rows = []
    for writers in (4, 6, 8, 10):
        history = adversarial_history(writers)
        verdict, t_adv = timed(
            check_linearizability, history, max_states=5_000_000
        )
        adv_rows.append([writers, round(t_adv, 2), not verdict.ok])
    emit(capsys, render_table(
        ["concurrent writers", "linearizability ms", "violation found"],
        adv_rows,
        title="E11b: adversarial single-key histories (exponential blowup)",
    ))

    # (a) polynomial checkers stay cheap as histories grow 16x (the
    # session column is the first checker to run, so it pays the
    # history's one index build).
    assert timings[800]["session"] < 50.0
    assert timings[800]["causal"] < 50.0
    assert timings[800]["lin"] < timings[800]["causal"] + 500.0
    # (b) adversarial cost grows super-linearly with writer count.
    assert adv_rows[-1][1] > adv_rows[0][1]
    # All adversarial cases are genuine violations: after every write
    # completed, a read of the initial state cannot be linearized.
    assert all(row[2] for row in adv_rows)

    benchmark.pedantic(check_linearizability, args=(benign_history(200),),
                       rounds=3, iterations=1)
