"""Timing spans around the layer-boundary public functions of ``repro``.

``install()`` replaces public methods *on their classes* with timing
wrappers, so every object built afterwards is measured from outside;
``uninstall()`` puts the originals back.  No private name is patched
and nothing in ``src/`` knows about spans.

A span is ``(id, layer, name, start, end, parent, root)``.  ``parent``
comes from a call stack, ``root`` is the enclosing top-level span (a
benchmark phase).  A span's self time is its duration minus the time
its children cover, so the self times of a tree add up to its root.

Event callbacks are wrapped where they are *scheduled* (``Simulator
.schedule*``/``call_soon``, ``Node.set_timer``): the wrapper files the
callback's run time under the layer that owns the callback, which is
what makes time inside ``Simulator.run`` attributable.  What stays
unattributed there — the dispatch loop itself and message-delivery
events, which the network enqueues without going through ``schedule``
— is ``sim`` self time; the cProfile pass in ``run.py`` cross-checks
the split by source file.
"""

from __future__ import annotations

import json
from time import perf_counter
from typing import Any, Callable

#: Module prefix -> layer (the README's layer map).  First match wins,
#: so longer prefixes come first.
LAYER_MODULES: tuple[tuple[str, str], ...] = (
    ("repro.sim.network", "network"),
    ("repro.sim.node", "network"),
    ("repro.sim.topology", "network"),
    ("repro.sim.trace", "trace"),
    ("repro.perf", "trace"),
    ("repro.sim", "sim"),
    ("repro.rpc", "rpc"),
    ("repro.replication.common", "rpc"),
    ("repro.replication", "replication"),
    ("repro.storage", "replication"),
    ("repro.clocks", "replication"),
    ("repro.api", "api"),
    ("repro.client", "api"),
    ("repro.sharding", "sharding"),
    ("repro.cache", "cache"),
    ("repro.workload", "workload"),
    ("repro.histories", "histories"),
    ("repro.checkers", "checkers"),
    ("repro.chaos", "chaos"),
    ("repro.crdt", "crdt"),
    ("repro.analysis", "analysis"),
)
LAYERS: tuple[str, ...] = (
    "sim", "network", "rpc", "replication", "api", "sharding", "cache",
    "workload", "histories", "checkers", "trace", "chaos", "crdt",
    "analysis",
)
#: Everything else: the benchmark's own code, the stdlib, and ``repro``
#: packages no workload exercises.
OTHER = "other"

RAW_SPAN_LIMIT = 20_000


def layer_of_module(module: str) -> str:
    for prefix, layer in LAYER_MODULES:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return OTHER


def layer_of_file(filename: str) -> str:
    """Layer of a source file path (``.../repro/sim/core.py``)."""
    marker = "/repro/"
    at = filename.rfind(marker)
    if at < 0 or not filename.endswith(".py"):
        return OTHER
    module = "repro." + filename[at + len(marker):-3].replace("/", ".")
    return layer_of_module(module)


class Recorder:
    """Aggregates spans online and keeps the first few raw ones."""

    def __init__(self, raw_limit: int = RAW_SPAN_LIMIT) -> None:
        #: ``(layer, name) -> [calls, total seconds, self seconds]``
        self.totals: dict[tuple[str, str], list] = {}
        #: The first ``raw_limit`` spans *started*: a parent starts
        #: before its children, so the kept set is closed under
        #: ancestors and every kept tree can be checked.
        self.raw: list[list] = []
        self.raw_limit = raw_limit
        self.started = 0
        #: Seconds inside top-level spans: what the spans account for.
        self.root_s = 0.0
        # Stack frames are ``[span id, child seconds, root id]``.
        self._stack: list[list] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def timed(self, fn: Callable, layer: str, name: str) -> Callable:
        """``fn`` wrapped in a span filed under ``(layer, name)``."""
        total = self.totals.get((layer, name))
        if total is None:
            total = self.totals[(layer, name)] = [0, 0.0, 0.0]
        stack, raw, limit = self._stack, self.raw, self.raw_limit

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span_id = self.started
            self.started = span_id + 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0, parent[2] if parent else span_id]
            row = None
            if span_id < limit:
                row = [span_id, layer, name, 0.0, 0.0,
                       parent[0] if parent else None, frame[2]]
                raw.append(row)
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                total[0] += 1
                total[1] += duration
                total[2] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                else:
                    self.root_s += duration
                if row is not None:
                    row[3], row[4] = start, end

        # The simulator's tracer names an event by its callback's
        # qualname: keep it, so a fingerprint taken under spans equals
        # the one taken without.
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        return wrapper

    # -- results ------------------------------------------------------
    def by_layer(self, column: int) -> dict[str, float]:
        """Sum one ``totals`` column (0 calls, 1 total, 2 self) per layer."""
        out: dict[str, float] = {}
        for (layer, _name), row in self.totals.items():
            out[layer] = out.get(layer, 0) + row[column]
        return out

    def calls(self, layer: str, name: str) -> int:
        return self.totals.get((layer, name), (0, 0.0, 0.0))[0]

    def total_s(self, layer: str, name: str) -> float:
        return self.totals.get((layer, name), (0, 0.0, 0.0))[1]

    def mean_us(self, layer: str, *names: str, column: int = 1) -> float:
        """Mean duration (or, with ``column=2``, self time) in µs over
        the named spans of ``layer``."""
        calls = seconds = 0.0
        for name in names:
            row = self.totals.get((layer, name))
            if row is not None:
                calls += row[0]
                seconds += row[column]
        return seconds / calls * 1e6 if calls else 0.0

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span_id, layer, name, start, end, parent, root in self.raw:
                out.write(json.dumps({
                    "id": span_id, "layer": layer, "name": name,
                    "start": start, "end": end, "parent": parent,
                    "root": root,
                }) + "\n")


#: The recorder ``install()`` made, while it is installed.  Patching
#: classes is process-wide by nature, so one slot is the honest shape.
_active: Recorder | None = None


def call(layer: str, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
    """``fn(*args, **kwargs)`` inside a span when spans are installed,
    a plain call otherwise — for the benchmark's own phase code."""
    if _active is None:
        return fn(*args, **kwargs)
    return _active.timed(fn, layer, name)(*args, **kwargs)


# ---------------------------------------------------------------------------
# Installation
# ---------------------------------------------------------------------------
def install() -> Recorder:
    """Patch the boundary functions; returns the recorder collecting
    their spans.  Objects must be built *after* this call."""
    global _active
    if _active is not None:
        raise RuntimeError("spans are already installed")

    from repro.analysis import LatencyStats
    from repro.analysis.registry import MetricsRegistry
    from repro.api.store import FnSession
    from repro.cache.store import CachedSession
    from repro.chaos import Nemesis
    from repro.crdt import GCounter, ORSet
    from repro.histories import TokenHistoryRecorder
    from repro.perf import HashingTracer
    from repro.replication.common import ClientNode
    from repro.sharding.sharded import ShardedSession
    from repro.sim import Network, Node, Simulator
    from repro.sim.events import Event
    from repro.sim.process import Process
    from repro.workload import YCSBWorkload

    rec = Recorder()
    owner_layers: dict[type, str] = {}

    def owner_layer(owner: Any) -> str:
        cls = type(owner)
        layer = owner_layers.get(cls)
        if layer is None:
            layer = ("rpc" if issubclass(cls, ClientNode)
                     else layer_of_module(cls.__module__))
            owner_layers[cls] = layer
        return layer

    def callback_layer(fn: Callable) -> str:
        owner = getattr(fn, "__self__", None)
        if owner is None:
            return layer_of_module(getattr(fn, "__module__", None) or "")
        if isinstance(owner, Process):
            # A process step runs the generator's code, not Process's.
            code = getattr(owner.gen, "gi_code", None)
            if code is not None:
                return layer_of_file(code.co_filename)
        return owner_layer(owner)

    def wrap_callback(fn: Callable, layer: str | None = None) -> Callable:
        name = getattr(fn, "__qualname__", None)
        if name is None:
            return fn      # unnamed callables keep their trace identity
        return rec.timed(fn, layer or callback_layer(fn), name)

    def defining_class(cls: type, attr: str) -> type:
        for klass in cls.__mro__:
            if attr in klass.__dict__:
                return klass
        raise AttributeError(f"{cls.__name__}.{attr}")

    def replace(cls: type, attr: str, make: Callable[[Callable], Callable]) -> None:
        klass = defining_class(cls, attr)
        original = klass.__dict__[attr]
        rec._patched.append((klass, attr, original))
        setattr(klass, attr, make(original))

    def patch(cls: type, layer: str, *attrs: str) -> None:
        for attr in attrs:
            replace(cls, attr, lambda original, a=attr: rec.timed(
                original, layer, f"{cls.__name__}.{a}"))

    def patch_scheduler(attr: str, fn_at: int) -> None:
        """``Simulator.<attr>``: a ``sim`` span for the call itself,
        and the scheduled callback wrapped under its owner's layer."""
        def make(original: Callable) -> Callable:
            timed = rec.timed(original, "sim", f"Simulator.{attr}")

            def scheduler(self: Any, *args: Any) -> Any:
                if len(args) > fn_at:
                    args = (*args[:fn_at], wrap_callback(args[fn_at]),
                            *args[fn_at + 1:])
                return timed(self, *args)
            return scheduler
        replace(Simulator, attr, make)

    def by_owner(original: Callable, name: str) -> Callable:
        """A method whose layer depends on the class of ``self``."""
        variants: dict[type, Callable] = {}

        def method(self: Any, *args: Any, **kwargs: Any) -> Any:
            fn = variants.get(type(self))
            if fn is None:
                fn = variants[type(self)] = rec.timed(
                    original, owner_layer(self), name)
            return fn(self, *args, **kwargs)
        return method

    def make_set_timer(original: Callable) -> Callable:
        def set_timer(self: Any, delay: float, fn: Callable, *args: Any,
                      **kwargs: Any) -> Any:
            return original(self, delay, wrap_callback(fn, owner_layer(self)),
                            *args, **kwargs)
        return set_timer

    patch(Simulator, "sim", "run")
    patch_scheduler("schedule", 1)
    patch_scheduler("schedule_at", 1)
    patch_scheduler("schedule_daemon", 1)
    patch_scheduler("call_soon", 0)
    patch(Event, "sim", "cancel")
    patch(Network, "network", "send", "broadcast")
    # Node.deliver is the entry to every protocol handler — and to the
    # client's reply handling, which belongs to rpc.
    replace(Node, "deliver", lambda original: by_owner(original, "Node.deliver"))
    replace(Node, "set_timer", make_set_timer)
    patch(ClientNode, "rpc", "call", "request")
    patch(FnSession, "api", "get", "put")
    patch(ShardedSession, "sharding", "get", "put")
    patch(CachedSession, "cache", "get", "put")
    patch(TokenHistoryRecorder, "histories",
          "begin", "complete_token", "fail", "history")
    patch(YCSBWorkload, "workload", "next_op")
    patch(Nemesis, "chaos", "install", "stop", "heal_all")
    patch(HashingTracer, "trace", "record")
    patch(ORSet, "crdt", "merge", "copy", "add", "remove")
    patch(GCounter, "crdt", "merge", "copy", "increment")
    patch(MetricsRegistry, "analysis", "snapshot")
    patch(LatencyStats, "analysis", "record")

    _active = rec
    return rec


def uninstall(rec: Recorder) -> None:
    global _active
    for klass, attr, original in reversed(rec._patched):
        setattr(klass, attr, original)
    rec._patched.clear()
    _active = None
