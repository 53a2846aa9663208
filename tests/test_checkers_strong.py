"""Tests for linearizability, sequential, and causal checkers."""

from repro.checkers import (
    check_causal,
    check_linearizability,
    check_sequential,
)
from repro.histories import History, make_read, make_write


# ----------------------------------------------------------------------
# Linearizability
# ----------------------------------------------------------------------

def test_lin_trivial_sequential_history():
    h = History([
        make_write("k", 1, start=0, end=1),
        make_read("k", 1, start=2, end=3),
    ])
    assert check_linearizability(h).ok


def test_lin_read_of_initial_state():
    h = History([make_read("k", 0, start=0, end=1)])
    assert check_linearizability(h).ok


def test_lin_stale_read_after_write_completed_is_violation():
    h = History([
        make_write("k", 1, start=0, end=1),
        make_read("k", 0, start=2, end=3),  # write finished before read began
    ])
    verdict = check_linearizability(h)
    assert not verdict.ok


def test_lin_concurrent_read_may_return_either():
    # Read overlaps the write: returning old or new value is fine.
    old = History([
        make_write("k", 1, start=0, end=10),
        make_read("k", 0, start=2, end=3),
    ])
    new = History([
        make_write("k", 1, start=0, end=10),
        make_read("k", 1, start=2, end=3),
    ])
    assert check_linearizability(old).ok
    assert check_linearizability(new).ok


def test_lin_two_reads_cannot_flip_flop():
    # r1 sees v1 then r2 (after r1) sees v0: impossible atomically.
    h = History([
        make_write("k", 1, start=0, end=20),
        make_read("k", 1, start=2, end=4),
        make_read("k", 0, start=6, end=8),
    ])
    assert not check_linearizability(h).ok


def test_lin_pending_write_may_or_may_not_take_effect():
    # Write never acked; a later read may see it...
    h1 = History([
        make_write("k", 1, start=0, end=None),
        make_read("k", 1, start=5, end=6),
    ])
    # ...or not.
    h2 = History([
        make_write("k", 1, start=0, end=None),
        make_read("k", 0, start=5, end=6),
    ])
    assert check_linearizability(h1).ok
    assert check_linearizability(h2).ok


def test_lin_pending_write_cannot_take_effect_before_invocation():
    h = History([
        make_read("k", 1, start=0, end=1),      # reads v1 before it exists
        make_write("k", 1, start=5, end=None),
    ])
    assert not check_linearizability(h).ok


def test_lin_locality_per_key():
    # Violation on key b must not taint key a.
    h = History([
        make_write("a", 1, start=0, end=1),
        make_read("a", 1, start=2, end=3),
        make_write("b", 1, start=0, end=1),
        make_read("b", 0, start=2, end=3),
    ])
    verdict = check_linearizability(h)
    assert verdict.violation_count == 1
    assert check_linearizability(History(h.by_key("a"))).ok
    assert not check_linearizability(History(h.by_key("b"))).ok


def test_lin_interleaved_writers_classic_ok_case():
    h = History([
        make_write("k", 1, session="w1", start=0, end=4),
        make_write("k", 2, session="w2", start=1, end=5),
        make_read("k", 1, start=6, end=7),   # w1 linearized after w2
        make_read("k", 1, start=8, end=9),
    ])
    assert check_linearizability(h).ok


def test_lin_budget_exhaustion_reports_undecided():
    ops = []
    for i in range(1, 9):
        ops.append(make_write("k", i, start=0, end=100))
    ops.append(make_read("k", 0, start=101, end=102))
    # All writes concurrent; read of v0 after them is a real violation,
    # but with a 1-state budget the checker must punt, not hang.
    verdict = check_linearizability(History(ops), max_states=1)
    assert not verdict.ok
    assert "undecided" in str(verdict.violations[0])


# ----------------------------------------------------------------------
# Sequential consistency
# ----------------------------------------------------------------------

def test_seq_allows_stale_reads_in_real_time():
    # Not linearizable (read after write completes sees old value) but
    # sequentially consistent (order the read before the write).
    h = History([
        make_write("k", 1, session="w", start=0, end=1),
        make_read("k", 0, session="r", start=2, end=3),
    ])
    assert not check_linearizability(h).ok
    assert check_sequential(h).ok


def test_seq_program_order_still_binds():
    # Same session: write then read must see it.
    h = History([
        make_write("k", 1, session="s", start=0, end=1),
        make_read("k", 0, session="s", start=2, end=3),
    ])
    assert not check_sequential(h).ok


def test_seq_not_local_cross_key_iriw_violation():
    # Independent reads of independent writes: two observers disagree
    # on the order of writes to x and y — sequentially inconsistent
    # even though each key alone is fine.
    h = History([
        make_write("x", 1, session="wx", start=0, end=1),
        make_write("y", 1, session="wy", start=0, end=1),
        make_read("x", 1, session="r1", start=2, end=3),
        make_read("y", 0, session="r1", start=4, end=5),
        make_read("y", 1, session="r2", start=2, end=3),
        make_read("x", 0, session="r2", start=4, end=5),
    ])
    assert not check_sequential(h).ok


def test_seq_monotonic_read_sequences_ok():
    h = History([
        make_write("x", 1, session="w", start=0, end=1),
        make_write("x", 2, session="w", start=2, end=3),
        make_read("x", 1, session="r", start=4, end=5),
        make_read("x", 2, session="r", start=6, end=7),
    ])
    assert check_sequential(h).ok


def test_seq_empty_history_ok():
    assert check_sequential(History()).ok


# ----------------------------------------------------------------------
# Causal consistency
# ----------------------------------------------------------------------

def test_causal_simple_chain_ok():
    h = History([
        make_write("k", 1, session="a", start=0, end=1),
        make_read("k", 1, session="b", start=2, end=3),
        make_write("k", 2, session="b", start=4, end=5),
        make_read("k", 2, session="c", start=6, end=7),
    ])
    assert check_causal(h).ok


def test_causal_violation_read_skips_causal_dependency():
    # b read v2 (which causally follows v1), then read v1 again via
    # session order: reading a superseded version.
    h = History([
        make_write("k", 1, session="w", start=0, end=1),
        make_write("k", 2, session="w", start=2, end=3),
        make_read("k", 2, session="r", start=4, end=5),
        make_read("k", 1, session="r", start=6, end=7),
    ])
    verdict = check_causal(h)
    assert not verdict.ok


def test_causal_initial_read_after_causally_known_write():
    h = History([
        make_write("k", 1, session="s", start=0, end=1),
        make_read("k", 0, session="s", start=2, end=3),
    ])
    verdict = check_causal(h)
    assert not verdict.ok
    assert "initial" in str(verdict.violations[0])


def test_causal_concurrent_sessions_may_see_different_orders():
    # Without cross-session reads there is no causal edge between the
    # sessions; stale reads across sessions are causally fine.
    h = History([
        make_write("x", 1, session="w1", start=0, end=1),
        make_read("x", 0, session="r1", start=2, end=3),
    ])
    assert check_causal(h).ok


def test_causal_checked_ops_counts_reads():
    h = History([
        make_write("k", 1, session="a", start=0, end=1),
        make_read("k", 1, session="b", start=2, end=3),
    ])
    verdict = check_causal(h)
    assert verdict.checked_ops == 1
