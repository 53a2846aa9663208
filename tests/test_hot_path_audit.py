"""Hot-path invariants: slotted structs, handle-free ``call_soon``,
batched dispatch, fingerprint cost.

Seven families of checks guard the raw-speed machinery:

* **Slots audit** — the structs on the per-event/per-message hot path
  (:class:`Event`, the network/RPC/replication message dataclasses,
  :class:`TraceEvent`, a node's :class:`Deadline` and its lane) must
  stay ``__slots__``-only: no instance ``__dict__``, so no silent
  ad-hoc attributes and no per-instance dict allocation.  An AST scan backs this up by rejecting attribute
  writes to Event internals from outside the queue/simulator modules.
* **Handle-free ``call_soon``** — it allocates no :class:`Event` and
  returns ``None``; an AST scan insists every call site is a bare
  expression statement, so nothing can come to depend on a handle.
* **Who touches the queue** — the queue's ``_seq`` / ``_live`` /
  ``_foreground`` / ``_heap`` are written in ``sim/events.py``,
  ``sim/core.py`` and the network's two enqueue sites only; ``Future``
  callbacks are queued through ``call_soon`` and messages reach handlers
  through ``Node.deliver`` (nothing outside ``sim/node.py`` reads the
  handler cache), the two points ``bench/spans.py`` hooks.
* **Batched dispatch** — ``Simulator.run``'s batched inner loop must
  be observationally identical to popping one event at a time: a
  property test drives random schedules (same-tick cascades,
  cancellations, daemons, same-instant sends and fan-outs) through
  ``run()`` and a ``step()`` loop and requires byte-identical trace
  hashes, ``events_processed`` and queue length.
* **The message path** — a message costs one send and one dispatch:
  Python frames per message, counted with ``sys.setprofile``, stay at
  the handful the path needs, and no protocol sends one loop-invariant
  message in a ``for`` loop (that is a fan-out: ``send_many``).
* **A node never messages itself** — a Dynamo coordinator serves its
  own replica and a Multi-Paxos leader votes for itself in-process:
  across every perf scenario and bench workload, no ``Network`` send
  has ``src == dst``.
* **Fingerprint cost** — ``HashingTracer`` builds almost no
  ``TraceEvent``, encodes almost nothing through ``json.dumps`` and
  feeds SHA-256 in batches, takes ``round`` for almost no tick's time
  text, and its caches grow with the distinct strings traced, not with
  the records.  Counts, not timings: timing gates flake on a shared
  host, counts do not.
"""

import ast
import collections
import gc
import hashlib
import importlib
import json
import pathlib
import sys
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf import SCENARIOS, HashingTracer
from repro.perf.scenarios import _QUORUM, _ycsb
from repro.replication.common import Reply, Request
from repro.replication.quorum import FetchMsg, FetchReply, QGet, QPut, StoreAck, StoreMsg
from repro.sim import (
    ExponentialLatency,
    FixedLatency,
    Future,
    Network,
    Node,
    Simulator,
    trace,
)
from repro.sim.events import Event
from repro.sim.network import LinkFault
from repro.sim.node import Deadline, _Lane
from repro.sim.trace import TraceEvent

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
BENCH = SRC.parent.parent / "bench"


# ---------------------------------------------------------------------------
# Slots audit
# ---------------------------------------------------------------------------

SLOTTED_HOT_STRUCTS = [
    Event(0.0, 0, lambda: None, ()),
    Request(1, "payload"),
    Reply(1),
    QPut("k", "v"),
    QGet("k"),
    StoreMsg(1, "k", "v", None),
    StoreAck(1),
    FetchMsg(1, "k"),
    FetchReply(1, "k", None, None),
    LinkFault(),
    TraceEvent(0.0, "kind"),
    Deadline(0.0, lambda: None, (), _Lane(0.0)),
    _Lane(0.0),
]


@pytest.mark.parametrize(
    "instance", SLOTTED_HOT_STRUCTS,
    ids=[type(obj).__name__ for obj in SLOTTED_HOT_STRUCTS],
)
def test_hot_structs_reject_ad_hoc_attributes(instance):
    assert not hasattr(instance, "__dict__"), (
        f"{type(instance).__name__} grew an instance __dict__ — "
        "a base class lost its __slots__"
    )
    with pytest.raises(AttributeError):
        instance.some_ad_hoc_attribute = 1


#: Attribute names that constitute Event's internals.  Writing them on
#: any attribute target outside the queue/simulator modules means some
#: protocol is poking scheduled-event state directly, behind the
#: queue's live / foreground / dead accounting.
_EVENT_INTERNALS = frozenset({"cancelled", "executed", "daemon", "_queue"})
_EVENT_MODULES = frozenset({"events.py", "core.py"})


def _py_files():
    return [
        path for path in sorted(SRC.rglob("*.py"))
        if "__pycache__" not in path.parts
    ]


def test_no_external_writes_to_event_internals():
    offenders = []
    for path in _py_files():
        if path.name in _EVENT_MODULES and path.parent.name == "sim":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                if (isinstance(target, ast.Attribute)
                        and target.attr in _EVENT_INTERNALS
                        # self.daemon etc. on unrelated classes is fine;
                        # flag only writes through obvious event handles.
                        and isinstance(target.value, ast.Name)
                        and ("event" in target.value.id.lower()
                             or "timer" in target.value.id.lower())):
                    offenders.append(
                        f"{path.relative_to(SRC)}:{node.lineno} "
                        f"writes {target.value.id}.{target.attr}"
                    )
    assert offenders == []


def test_set_timer_builds_no_closure():
    """A timer's event carries the node's bound crash-guard and
    ``(fn, args)`` — not a per-call ``guarded`` function object and its
    three cells, which the collector then had to track."""
    tree = ast.parse((SRC / "sim" / "node.py").read_text())
    (set_timer,) = [node for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef) and node.name == "set_timer"]
    nested = [node for node in ast.walk(set_timer) if node is not set_timer
              and isinstance(node, (ast.FunctionDef, ast.Lambda))]
    assert nested == []


def test_no_call_site_binds_a_call_soon_handle():
    """``call_soon`` returns ``None``: every call in the package must
    be a bare expression statement (callers needing a handle use
    ``schedule(0.0, ...)``)."""

    def is_call_soon(call):
        return (isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "call_soon")

    offenders = []
    for path in _py_files():
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                if is_call_soon(child) and not (
                    isinstance(node, ast.Expr) and node.value is child
                ):
                    offenders.append(
                        f"{path.relative_to(SRC)}:{child.lineno} binds or "
                        "nests call_soon's (None) result"
                    )
    assert offenders == []


def test_call_soon_returns_no_handle():
    assert Simulator().call_soon(lambda: None) is None


# ---------------------------------------------------------------------------
# Who touches the queue, and the two points the span hooks see
# ---------------------------------------------------------------------------

_QUEUE_FIELDS = frozenset({"_seq", "_live", "_foreground", "_heap"})
_QUEUE_MODULES = frozenset({("sim", "events.py"), ("sim", "core.py")})
#: The network's enqueue sites: ``push_fn``'s five lines, written out.
_ENQUEUE_SITES = frozenset({"send", "send_many"})


class _QueueFieldUses(ast.NodeVisitor):
    """``(function, line, field)`` for every write of ``x._seq`` /
    ``_live`` / ``_foreground`` and every use of ``x._heap`` (a heap is
    written by handing it to ``heapq``), ``x`` not ``self``: an object's
    own ``self._seq`` is its business, not the event queue's."""

    def __init__(self):
        self.functions, self.found = ["<module>"], []

    def visit_FunctionDef(self, node):
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    def visit_Attribute(self, node):
        if (node.attr in _QUEUE_FIELDS
                and not (isinstance(node.value, ast.Name) and node.value.id == "self")
                and (node.attr == "_heap" or isinstance(node.ctx, ast.Store))):
            self.found.append((self.functions[-1], node.lineno, node.attr))
        self.generic_visit(node)


def test_only_the_queue_the_simulator_and_two_enqueue_sites_write_the_queue():
    offenders, sites = [], set()
    for path in _py_files():
        where = (path.parent.name, path.name)
        if where in _QUEUE_MODULES:
            continue
        uses = _QueueFieldUses()
        uses.visit(ast.parse(path.read_text(), filename=str(path)))
        for function, lineno, field in uses.found:
            if where == ("sim", "network.py") and function in _ENQUEUE_SITES:
                sites.add(function)
            else:
                offenders.append(f"{path.relative_to(SRC)}:{lineno} {function} "
                                 f"touches the event queue's {field}")
    assert offenders == []
    assert sites == _ENQUEUE_SITES   # the scan sees the writes it allows


def _attribute_uses(attrs, allowed):
    """``path:line`` of every ``x.<attr>`` in ``src/`` outside ``allowed``
    (``(package, file)`` pairs)."""
    return [
        f"{path.relative_to(SRC)}:{node.lineno} uses .{node.attr}"
        for path in _py_files() if (path.parent.name, path.name) not in allowed
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr in attrs
    ]


def test_handlers_are_reached_through_node_deliver_only():
    """``bench/spans.py`` times a handler by wrapping ``Node.deliver``: a
    dispatch that read the handler cache itself would hide the handler."""
    assert _attribute_uses({"_handler_cache"}, {("sim", "node.py")}) == []


def test_future_callbacks_are_queued_through_call_soon(monkeypatch):
    """``bench/spans.py`` files a callback under its owner's layer by
    wrapping ``call_soon``: every callback of a settling future goes
    through it, in the order added, and nothing outside the simulator
    and the queue can push a handle-free entry."""
    assert _attribute_uses({"push_fn", "_push_fn"}, _QUEUE_MODULES) == []
    queued = []
    call_soon = Simulator.call_soon

    def counting(self, fn, *args):
        queued.append((fn, args))
        call_soon(self, fn, *args)

    monkeypatch.setattr(Simulator, "call_soon", counting)
    sim = Simulator()
    first, second, late = (lambda f: None), (lambda f: None), (lambda f: None)
    resolved, failed = Future(sim), Future(sim)
    for future in (resolved, failed):
        future.add_callback(first)
        future.add_callback(second)
    resolved.resolve(1)
    failed.fail(ValueError("x"))
    resolved.add_callback(late)
    assert queued == [(first, (resolved,)), (second, (resolved,)),
                      (first, (failed,)), (second, (failed,)), (late, (resolved,))]


# ---------------------------------------------------------------------------
# Batched dispatch == sequential dispatch (property)
# ---------------------------------------------------------------------------


class _Logger(Node):
    """Logs each message it handles into ``log``."""

    log = None

    def handle_FetchMsg(self, src, msg):
        self.log.append((self.sim.now, self.node_id, src, msg.op_id))


def _drive(sim, plan):
    """Schedule a workload exercising same-tick cascades, daemons,
    cross-cancellation and same-instant sends and fan-outs (under a fixed
    latency, so they land together and share dispatches), entirely
    determined by ``plan``."""
    handles = []
    out = []
    net = Network(sim, latency=FixedLatency(1.0))
    nodes = [_Logger(sim, net, name) for name in "abc"]
    ids = [node.node_id for node in nodes]
    for node in nodes:
        node.log = out

    def leaf(tag):
        out.append((sim.now, tag))

    def fanout(tag):
        out.append((sim.now, tag))
        sim.call_soon(leaf, -tag)  # same-tick cascade mid-batch

    def canceller(tag):
        out.append((sim.now, tag))
        if handles:
            handles.pop().cancel()  # may kill a same-tick batch-mate

    for index, (tick, kind) in enumerate(plan):
        when = float(tick)
        if kind == 0:
            handles.append(sim.schedule(when, leaf, index))
        elif kind == 1:
            sim.schedule(when, fanout, index)
        elif kind == 2:
            sim.schedule(when, canceller, index)
        elif kind == 3:
            sim.schedule_daemon(when, leaf, index)
        elif kind == 4:
            sim.schedule(when, nodes[index % 3].send, ids[(index + 1) % 3],
                         FetchMsg(index, "k"))
        else:
            sim.schedule(when, nodes[index % 3].send_many, ids, FetchMsg(index, "k"))
    return out


def _recount(queue):
    """``(live, foreground)`` entries, counted in the heap itself."""
    live = [entry for entry in queue._heap
            if len(entry) == 4 or not entry[2].cancelled]
    return len(live), sum(len(entry) == 4 or not entry[2].daemon for entry in live)


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(st.integers(min_value=0, max_value=4),
              st.integers(min_value=0, max_value=5)),
    max_size=25,
))
def test_batched_run_trace_equals_step_loop_trace(plan):
    batched_tracer, stepped_tracer = HashingTracer(), HashingTracer()

    batched = Simulator(seed=1, tracer=batched_tracer)
    batched_out = _drive(batched, plan)
    batched.run()

    stepped = Simulator(seed=1, tracer=stepped_tracer)
    stepped_out = _drive(stepped, plan)
    while stepped.step(daemons=False):
        pass

    assert batched_out == stepped_out
    assert batched.events_processed == stepped.events_processed
    assert len(batched._queue) == len(stepped._queue)
    for sim in (batched, stepped):   # the counters tell the heap's truth
        assert (len(sim._queue), sim._queue.foreground_live) == _recount(sim._queue)
    assert batched.now == stepped.now
    assert batched_tracer.hexdigest() == stepped_tracer.hexdigest()


# ---------------------------------------------------------------------------
# Fingerprint cost (counts)
# ---------------------------------------------------------------------------


def test_fingerprint_touches_slow_paths_on_few_records(monkeypatch):
    """On a traced quick ``quorum_ycsb`` run, ``TraceEvent``
    constructions, ``json.dumps`` calls from ``repro.sim.trace`` and
    ``sha256.update`` calls are each at most 5 % of the record count
    (one of each *per record* is what made the fingerprint cost 3x), and
    ``round`` — the time text's fallback from ``%.6f`` — is called for at
    most 5 % of the ticks (tick 0.0 is one: below 1e-4)."""
    reference = HashingTracer()
    SCENARIOS["quorum_ycsb"].run(42, True, reference)

    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    class CountedSha256:
        def __init__(self):
            self.inner = hashlib.sha256()
            self.hexdigest = self.inner.hexdigest
            self.update = counted("sha256.update", self.inner.update)

    monkeypatch.setattr(trace, "TraceEvent",
                        counted("TraceEvent", trace.TraceEvent))
    monkeypatch.setattr(trace, "json", types.SimpleNamespace(
        dumps=counted("json.dumps", json.dumps), loads=json.loads))
    monkeypatch.setattr(trace, "hashlib",
                        types.SimpleNamespace(sha256=CountedSha256))
    monkeypatch.setattr(trace, "round", counted("round", round), raising=False)
    monkeypatch.setattr(trace, "_time_text", counted("ticks", trace._time_text))
    tracer = HashingTracer()
    SCENARIOS["quorum_ycsb"].run(42, True, tracer)

    # The counting shims are wired in and changed no byte.
    assert tracer.hexdigest() == reference.hexdigest()
    assert calls["json.dumps"] > 0 and calls["sha256.update"] > 0 and calls["round"] > 0
    # Enough records for the ratios to mean something: ~8,450 since a
    # coordinator stopped messaging itself (a quarter of the messages,
    # and their events, went; above 10,000 before), over ~2,430 ticks.
    assert tracer.count > 8_000 and calls["ticks"] > 2_000
    for name in ("TraceEvent", "json.dumps", "sha256.update"):
        assert calls[name] <= 0.05 * tracer.count, (name, calls[name])
    assert calls["round"] <= 0.05 * calls["ticks"], calls


def test_fingerprint_caches_grow_with_distinct_strings_not_records():
    """Doubling ``quorum_ycsb``'s ops doubles the records and leaves each
    cache within a few entries: the fragments (node ids, message types,
    callback names, annotation values), the ``event_executed`` prefixes
    (callback names) and the message bodies (links × kinds × types) —
    keyed by exact strings or tuples of them, never by callables (a per-op
    closure each), by a non-``str`` equal to one, or by record."""
    traced = []
    for ops in (400, 800):
        tracer = HashingTracer()
        _ycsb(_QUORUM, 500, quick=(ops, 8), full=(ops, 8))(42, True, tracer)
        caches = (tracer._frags, tracer._prefixes, tracer._bodies)
        assert all(type(key) is str for key in tracer._frags)
        assert all(type(key) is str for key in tracer._prefixes)
        assert all(type(key) is tuple and all(type(part) is str for part in key)
                   for key in tracer._bodies)
        traced.append((tracer.count, [len(cache) for cache in caches]))
    (records, sizes), (more_records, more_sizes) = traced
    assert more_records > 1.9 * records
    for cached, more_cached, bound in zip(sizes, more_sizes, (100, 20, 1_000)):
        assert cached <= more_cached <= cached + 8 < bound


# ---------------------------------------------------------------------------
# The message path (counts)
# ---------------------------------------------------------------------------


class _Echo(Node):
    def handle_FetchMsg(self, src, msg):
        pass


def _python_frames(fn):
    """Python-level calls made while ``fn()`` runs (``"call"`` events only:
    which built-ins a path touches differs across 3.10-3.12, its frames
    do not), with the collector off: a collection would add the frames
    of ``gc.callbacks`` (hypothesis installs one) and of any generator it
    finalises."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    gc.collect()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(previous)
        gc.enable()
    return calls


def test_frames_per_message_from_send_to_handler():
    """Node.send -> Network.send -> sampler -> _deliver -> Node.deliver ->
    handler is 6 frames (12 before the counters, the ``expovariate``
    call, ``on_message`` and ``push_fn`` left the path); a five-way
    fan-out with one loopback shares the first two and draws four delays
    (4.2 per message; 11.8 before)."""
    sim = Simulator(seed=3)
    net = Network(sim, latency=ExponentialLatency(0.3, 1.0))
    nodes = [_Echo(sim, net, f"n{i}") for i in range(5)]
    ids = [node.node_id for node in nodes]
    message = FetchMsg(1, "k")
    sender = nodes[0]

    def unicast():
        for dst in ids[1:]:
            sender.send(dst, message)
        sim.run()

    def fan_out():
        sender.send_many(ids, message)
        sim.run()

    unicast()                               # warm: samplers, caches, counter
    fan_out()
    rounds = 40
    delivered = sim.metrics.counter("net.messages_delivered")
    for drive, per_round, ceiling in ((unicast, 4, 6), (fan_out, 5, 4.2)):
        before = delivered.value
        frames = _python_frames(lambda: [drive() for _ in range(rounds)])
        messages = delivered.value - before
        assert messages == rounds * per_round
        # Not the path's: the lambda and its comprehension once, ``drive``
        # and ``Simulator.run`` once per round.
        assert frames - 2 - 2 * rounds <= ceiling * messages, (drive.__name__, frames)


def _invariant_send_loops(tree):
    """``for v in ...: self.send(<v or v.attr>, <expression without v>)``,
    bare or under one ``if``: a loop-invariant message sent in a loop."""
    for loop in ast.walk(tree):
        if not (isinstance(loop, ast.For) and isinstance(loop.target, ast.Name)):
            continue
        body = loop.body
        if (len(body) == 1 and isinstance(body[0], ast.If)
                and not body[0].orelse):
            body = body[0].body
        if not (len(body) == 1 and isinstance(body[0], ast.Expr)):
            continue
        call = body[0].value
        if not (isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "send"
                and isinstance(call.func.value, ast.Name)
                and call.func.value.id == "self"
                and len(call.args) == 2 and not call.keywords):
            continue
        to_loop_variable, invariant = (
            any(isinstance(name, ast.Name) and name.id == loop.target.id
                for name in ast.walk(arg))
            for arg in call.args)
        if to_loop_variable and not invariant:
            yield loop.lineno


def test_nothing_sends_a_loop_invariant_message_in_a_loop():
    offenders = [
        f"{path.relative_to(SRC)}:{lineno} sends one message per iteration "
        "of a loop that never changes it; use send_many"
        for path in _py_files()
        for lineno in _invariant_send_loops(
            ast.parse(path.read_text(), filename=str(path)))
    ]
    assert offenders == []


def test_the_loop_scan_sees_what_it_is_for():
    flagged = """
for peer in peers:
    self.send(peer, message)
for peer in self.cluster.node_ids:
    if peer != self.node_id:
        self.send(peer, Commit(slot))
for backup in backups:
    self.send(backup.node_id, msg)
"""
    allowed = """
for peer in peers:
    self.send(peer, Hint(peer, value))
for peer in peers:
    self.send(peer, message)
    self.count += 1
for peer in peers:
    if slow:
        self.set_timer(1.0, self.send, peer, message)
    else:
        self.send(peer, message)
"""
    assert list(_invariant_send_loops(ast.parse(flagged))) == [2, 4, 7]
    assert list(_invariant_send_loops(ast.parse(allowed))) == []


# ---------------------------------------------------------------------------
# A node never messages itself (counts)
# ---------------------------------------------------------------------------


def _loopback_sends(monkeypatch, run):
    """``run()``'s sends from a node to itself, by message type, and its
    sends in all.  ``send_many`` is the ``send`` loop send for send
    (``test_send_many_is_the_send_loop``), so here it *is* that loop and
    every copy is counted once, at ``send``."""
    loopback, sent = collections.Counter(), [0]
    send = Network.send

    def counting_send(self, src, dst, message):
        sent[0] += 1
        if src == dst:
            loopback[type(message).__name__] += 1
        send(self, src, dst, message)

    def send_loop(self, src, dsts, message):
        for dst in dsts:
            self.send(src, dst, message)

    monkeypatch.setattr(Network, "send", counting_send)
    monkeypatch.setattr(Network, "send_many", send_loop)
    run()
    return dict(loopback), sent[0]


def _bench_run(name):
    workload = importlib.import_module("workloads").WORKLOADS[name]
    return lambda: workload.run(workload.build(42, workload.smoke_ops, None))


_BENCH_WORKLOADS = ("quorum_closed", "paxos_lin", "openloop_overload",
                    "stack_chaos", "causal_checked", "crdt_merge_storm")


@pytest.mark.parametrize("target", [f"core/{name}" for name in SCENARIOS]
                         + [f"bench/{name}" for name in _BENCH_WORKLOADS])
def test_no_node_sends_a_message_to_itself(monkeypatch, target):
    """Every quick perf scenario and every bench workload at smoke size:
    a home coordinator's fetch, store and read repair and a leader's
    prepare and accept to itself are served in-process, not sent."""
    catalogue, name = target.split("/")
    if catalogue == "core":
        run = lambda: SCENARIOS[name].run(42, True, None)  # noqa: E731
    else:
        monkeypatch.syspath_prepend(str(BENCH))
        run = _bench_run(name)
    loopback, sent = _loopback_sends(monkeypatch, run)
    assert loopback == {}
    assert sent > 0 or "crdt" in name   # the CRDT storms use no network


def test_the_loopback_count_sees_what_it_is_for(monkeypatch):
    sim = Simulator(seed=1)
    net = Network(sim)
    a, b = _Echo(sim, net, "a"), _Echo(sim, net, "b")

    def run():
        a.send_many(["a", "b", "a"], FetchMsg(1, "k"))
        b.send("b", FetchMsg(2, "k"))
        sim.run()

    assert _loopback_sends(monkeypatch, run) == ({"FetchMsg": 3}, 4)
