"""Tests for the session-guarantee checkers."""

from repro.checkers import (
    check_all_session_guarantees,
    check_monotonic_reads,
    check_monotonic_writes,
    check_read_your_writes,
    check_writes_follow_reads,
)
from repro.histories import History, make_read, make_write


# ----------------------------------------------------------------------
# Read-your-writes
# ----------------------------------------------------------------------

def test_ryw_pass_when_read_sees_own_write():
    h = History([
        make_write("k", 3, session="s", start=0, end=1),
        make_read("k", 3, session="s", start=2, end=3),
    ])
    verdict = check_read_your_writes(h)
    assert verdict.ok and verdict.checked_ops == 1


def test_ryw_pass_when_read_sees_newer_version():
    h = History([
        make_write("k", 3, session="s", start=0, end=1),
        make_read("k", 7, session="s", start=2, end=3),
    ])
    assert check_read_your_writes(h).ok


def test_ryw_violation_on_stale_read_after_own_write():
    h = History([
        make_write("k", 3, session="s", start=0, end=1),
        make_read("k", 2, session="s", start=2, end=3),
    ])
    verdict = check_read_your_writes(h)
    assert not verdict.ok
    assert verdict.violation_count == 1
    assert "s" in str(verdict.violations[0])


def test_ryw_other_sessions_writes_do_not_constrain():
    h = History([
        make_write("k", 5, session="writer", start=0, end=1),
        make_read("k", 0, session="reader", start=2, end=3),
    ])
    assert check_read_your_writes(h).ok


def test_ryw_per_key_independence():
    h = History([
        make_write("a", 2, session="s", start=0, end=1),
        make_read("b", 0, session="s", start=2, end=3),
    ])
    assert check_read_your_writes(h).ok


# ----------------------------------------------------------------------
# Monotonic reads
# ----------------------------------------------------------------------

def test_mr_pass_nondecreasing():
    h = History([
        make_read("k", 1, session="s", start=0, end=1),
        make_read("k", 1, session="s", start=2, end=3),
        make_read("k", 4, session="s", start=4, end=5),
    ])
    verdict = check_monotonic_reads(h)
    assert verdict.ok and verdict.checked_ops == 3


def test_mr_violation_on_time_travel():
    h = History([
        make_read("k", 4, session="s", start=0, end=1),
        make_read("k", 2, session="s", start=2, end=3),
    ])
    verdict = check_monotonic_reads(h)
    assert verdict.violation_count == 1
    assert verdict.checked_ops == 2


def test_mr_sessions_checked_independently():
    h = History([
        make_read("k", 4, session="s1", start=0, end=1),
        make_read("k", 1, session="s2", start=2, end=3),
    ])
    assert check_monotonic_reads(h).ok


# ----------------------------------------------------------------------
# Monotonic writes
# ----------------------------------------------------------------------

def test_mw_pass_in_order():
    h = History([
        make_write("k", 1, session="s", start=0, end=1),
        make_write("k", 5, session="s", start=2, end=3),
    ])
    assert check_monotonic_writes(h).ok


def test_mw_violation_when_installed_out_of_order():
    h = History([
        make_write("k", 5, session="s", start=0, end=1),
        make_write("k", 2, session="s", start=2, end=3),
    ])
    verdict = check_monotonic_writes(h)
    assert verdict.violation_count == 1


def test_mw_duplicate_version_is_violation():
    h = History([
        make_write("k", 3, session="s", start=0, end=1),
        make_write("k", 3, session="s", start=2, end=3),
    ])
    assert not check_monotonic_writes(h).ok


# ----------------------------------------------------------------------
# Writes-follow-reads
# ----------------------------------------------------------------------

def test_wfr_pass_when_write_ordered_after_read():
    h = History([
        make_read("k", 3, session="s", start=0, end=1),
        make_write("k", 4, session="s", start=2, end=3),
    ])
    assert check_writes_follow_reads(h).ok


def test_wfr_violation_when_write_ordered_before_read_version():
    h = History([
        make_read("k", 3, session="s", start=0, end=1),
        make_write("k", 2, session="s", start=2, end=3),
    ])
    verdict = check_writes_follow_reads(h)
    assert verdict.violation_count == 1


def test_wfr_no_prior_read_no_constraint():
    h = History([
        make_write("k", 1, session="s", start=0, end=1),
    ])
    assert check_writes_follow_reads(h).ok


# ----------------------------------------------------------------------
# Combined
# ----------------------------------------------------------------------

def test_all_guarantees_run_together():
    h = History([
        make_write("k", 1, session="s", start=0, end=1),
        make_read("k", 0, session="s", start=2, end=3),   # RYW violation
        make_read("k", 1, session="s", start=4, end=5),
    ])
    verdicts = check_all_session_guarantees(h)
    assert set(verdicts) == {
        "read-your-writes",
        "monotonic-reads",
        "monotonic-writes",
        "writes-follow-reads",
    }
    assert not verdicts["read-your-writes"].ok
    assert verdicts["monotonic-reads"].ok


def test_incomplete_ops_ignored():
    h = History([
        make_write("k", 9, session="s", start=0, end=None),
        make_read("k", 0, session="s", start=2, end=3),
    ])
    # The write never completed, so the read owes it nothing.
    assert check_read_your_writes(h).ok
