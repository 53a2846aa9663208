"""Tests for history recording and views."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.histories import (
    History,
    TokenHistoryRecorder,
    make_read,
    make_write,
)
from repro.sim import Simulator


# ----------------------------------------------------------------------
# What each view means: a scan (and sort) of the whole history per call,
# which is how `History` computed them before it kept indexes.  The
# causal oracle in test_checker_oracle reads histories through these.
# ----------------------------------------------------------------------

def scan_completed(history):
    return [op for op in history if op.completed]


def scan_by_session(history, session):
    ops = [op for op in history if op.session == session and op.completed]
    ops.sort(key=lambda op: (op.start, op.op_id))
    return ops


def scan_sessions(history):
    return list(dict.fromkeys(op.session for op in history))


def scan_by_key(history, key):
    return [op for op in history if op.key == key]


def scan_keys(history):
    return list(dict.fromkeys(op.key for op in history))


def scan_completed_writes(history, key, order):
    return sorted(
        (op for op in history
         if op.is_write and op.completed and op.key == key),
        key=order,
    )


def assert_views_match_scans(history):
    assert list(history.completed) == scan_completed(history)
    assert history.sessions == scan_sessions(history)
    assert history.keys == scan_keys(history)
    assert list(history.reads()) == [
        op for op in history if op.is_read and op.completed]
    assert list(history.writes()) == [op for op in history if op.is_write]
    for session in history.sessions + ["no such session"]:
        assert list(history.by_session(session)) == scan_by_session(
            history, session)
    for key in history.keys + ["no such key"]:
        assert list(history.by_key(key)) == scan_by_key(history, key)
        assert list(history.writes_by_version(key)) == scan_completed_writes(
            history, key, lambda op: op.version)
        assert list(history.writes_by_end(key)) == scan_completed_writes(
            history, key, lambda op: op.end)
    for op in history:
        installed = [w for w in scan_completed(history) if w.is_write
                     and (w.key, w.version) == (op.key, op.version)]
        assert history.write_at(op.key, op.version) is (
            installed[-1] if installed else None)


#: Few sessions, keys, versions and start times, so duplicates, sessions
#: that hold only incomplete ops and ties on ``start`` all come up.
op_st = st.builds(
    lambda is_write, key, version, session, start, duration: (
        make_write if is_write else make_read)(
        key, version, session=session, start=float(start),
        end=None if duration is None else float(start + duration)),
    st.booleans(), st.integers(0, 2), st.integers(0, 3), st.integers(0, 3),
    st.integers(0, 6), st.one_of(st.none(), st.integers(0, 3)),
)


@given(ops=st.lists(op_st, max_size=25))
@settings(max_examples=200, deadline=None)
def test_indexed_views_equal_their_scan_definitions(ops):
    assert_views_match_scans(History(ops))


@given(ops=st.lists(op_st, max_size=12), more=st.lists(op_st, min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_add_and_extend_never_serve_a_stale_index(ops, more):
    history = History(ops)
    assert_views_match_scans(history)          # index built, then outgrown
    extended = history.extend(more)
    assert_views_match_scans(extended)
    assert_views_match_scans(history.add(more[0]))
    assert len(extended) == len(ops) + len(more)
    assert_views_match_scans(history)          # and the original is intact


def test_session_with_only_incomplete_ops_is_still_a_session():
    h = History([
        make_write("a", 0, session="ghost", start=0, end=None),
        make_read("a", 0, session="s1", start=1, end=2),
    ])
    assert h.sessions == ["ghost", "s1"]
    assert h.by_session("ghost") == ()
    assert h.writes_by_version("a") == () and h.write_at("a", 0) is None


def test_history_sorted_by_start_time():
    h = History([
        make_read("k", 1, start=5.0, end=6.0),
        make_write("k", 1, start=1.0, end=2.0),
    ])
    assert [op.kind for op in h] == ["write", "read"]
    assert len(h) == 2
    assert h[0].is_write and h[1].is_read


def test_history_views():
    h = History([
        make_write("a", 1, session="s1", start=0, end=1),
        make_read("a", 1, session="s2", start=2, end=3),
        make_write("b", 1, session="s1", start=4, end=5),
        make_read("b", 0, session="s1", start=6, end=7),
    ])
    assert h.sessions == ["s1", "s2"]
    assert h.keys == ["a", "b"]
    assert len(h.by_session("s1")) == 3
    assert len(h.by_key("a")) == 2
    assert len(h.reads()) == 2
    assert len(h.writes()) == 2


def test_history_incomplete_ops_excluded_from_session_view():
    h = History([
        make_write("a", 1, session="s1", start=0, end=None),
        make_read("a", 0, session="s1", start=2, end=3),
    ])
    assert len(h.by_session("s1")) == 1
    assert len(h.completed) == 1


def test_add_and_extend_return_new_histories():
    h = History()
    h2 = h.add(make_write("k", 1))
    h3 = h2.extend([make_read("k", 1, start=1, end=2)])
    assert len(h) == 0 and len(h2) == 1 and len(h3) == 2


def test_recorder_tracks_invocation_and_response_times():
    sim = Simulator()
    recorder = TokenHistoryRecorder(sim)
    handles = {}

    def invoke():
        handles["h"] = recorder.begin("read", "k", "s1")

    def respond():
        recorder.complete_token(handles["h"], ("stamp", 4), value="v")

    sim.schedule(1.0, invoke)
    sim.schedule(5.0, respond)
    sim.run()
    history = recorder.history()
    assert len(history) == 1
    op = history[0]
    assert (op.start, op.end) == (1.0, 5.0)
    # The only token of the key densifies to version 1.
    assert op.version == 1 and op.value == "v" and op.session == "s1"


def test_recorder_fail_records_incomplete_op():
    sim = Simulator()
    recorder = TokenHistoryRecorder(sim)
    handle = recorder.begin("write", "k", "s1")
    recorder.fail(handle)
    op = recorder.history()[0]
    assert not op.completed and op.end is None
