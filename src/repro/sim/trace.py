"""Structured execution tracing for the simulator.

A :class:`Tracer` records a timeline of structured
:class:`TraceEvent` records — one per executed simulator event,
message send/deliver/drop, node crash/recover, plus free-form
protocol annotations — that can be filtered in-process, dumped to
JSONL, and summarized from the command line (``python -m repro
trace``).

Tracing is **off by default and costs (almost) nothing when off**:
every hook site in :mod:`repro.sim.core`, :mod:`repro.sim.network`
and :mod:`repro.sim.node` guards on ``tracer.enabled``, and the
default :data:`NULL_TRACER` answers ``enabled = False``, so an
untraced simulation pays one attribute check per hook and never
allocates a record.

Enable tracing by constructing the simulator with a live tracer::

    from repro.sim import Simulator, Tracer

    tracer = Tracer()
    sim = Simulator(seed=7, tracer=tracer)
    ...  # build a cluster, run a workload
    tracer.dump_jsonl("run.trace.jsonl")

then inspect with ``python -m repro trace run.trace.jsonl``.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field
from math import isfinite
from typing import Any, Callable, Iterable, Iterator

# Canonical event kinds.  Protocol annotations use ANNOTATION with a
# free-form ``category`` field; everything else is emitted by the sim
# substrate itself.
EVENT_EXECUTED = "event_executed"
MSG_SEND = "msg_send"
MSG_DELIVER = "msg_deliver"
MSG_DROP = "msg_drop"
NODE_CRASH = "node_crash"
NODE_RECOVER = "node_recover"
ANNOTATION = "annotation"

_MESSAGE_KINDS = (MSG_SEND, MSG_DELIVER, MSG_DROP)


@dataclass(slots=True)
class TraceEvent:
    """One structured trace record: a timestamp, a kind, and fields."""

    time: float
    kind: str
    data: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        record: dict[str, Any] = {"time": round(self.time, 6), "kind": self.kind}
        record.update(self.data)
        # Node ids and payload fields are arbitrary Python values;
        # repr() keeps the dump total rather than throwing mid-export.
        return json.dumps(record, default=repr)

    def format_line(self) -> str:
        fields = " ".join(f"{key}={value}" for key, value in self.data.items())
        return f"{self.time:12.3f}  {self.kind:<15} {fields}"


def _fn_name(fn: Callable[..., Any]) -> str:
    """A callback's trace name: never its ``repr``, which can hold a memory address."""
    name = getattr(fn, "__qualname__", None)
    if isinstance(name, str):
        return name
    if isinstance(fn, functools.partial):
        return f"partial({_fn_name(fn.func)})"
    return type(fn).__qualname__


class TraceHooks:
    """A tracer's typed hooks in terms of its ``record``: the one definition of
    the per-event and per-message records' field names and order."""

    def annotate(self, time: float, category: str, **data: Any) -> None:
        """Protocol-defined annotation (kind=``annotation``)."""
        self.record(time, ANNOTATION, category=category, **data)

    def event(self, time: float, fn: Callable, seq: int, daemon: bool) -> None:
        self.record(time, EVENT_EXECUTED, fn=_fn_name(fn), seq=seq, daemon=daemon)

    def message(self, time: float, kind: str, src: Any, dst: Any,
                msg_type: str, reason: str | None = None) -> None:
        """A ``msg_send`` / ``msg_deliver``, or a ``msg_drop`` and why."""
        why = {} if reason is None else {"reason": reason}
        self.record(time, kind, **why, src=src, dst=dst, msg_type=msg_type)


class NullTracer(TraceHooks):
    """The default tracer: records nothing, accepts everything."""

    enabled = False

    def record(self, time: float, kind: str, **data: Any) -> None:
        pass


#: Shared no-op instance used by every simulator without a tracer.
NULL_TRACER = NullTracer()


class Tracer(TraceHooks):
    """Records structured events into an in-memory timeline.

    Parameters
    ----------
    capacity:
        Optional cap on retained events.  Once full, further records
        are counted in :attr:`dropped` instead of stored — a safety
        valve for long benchmark runs.
    """

    enabled = True

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.events: list[TraceEvent] = []
        self.capacity = capacity
        self.dropped = 0

    # -- recording -----------------------------------------------------
    def record(self, time: float, kind: str, **data: Any) -> None:
        if self.capacity is not None and len(self.events) >= self.capacity:
            self.dropped += 1
            return
        self.events.append(TraceEvent(time, kind, data))

    def clear(self) -> None:
        self.events.clear()
        self.dropped = 0

    # -- inspection ----------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def message_summary(self) -> dict[str, dict[str, int]]:
        """Per-message-type sent/delivered/dropped counts."""
        return message_summary(self.events)

    # -- export --------------------------------------------------------
    def dump_jsonl(self, path) -> int:
        """Write one JSON object per line; returns the event count."""
        with open(path, "w", encoding="utf-8") as handle:
            for event in self.events:
                handle.write(event.to_json())
                handle.write("\n")
        return len(self.events)

    def dumps_jsonl(self) -> str:
        return "".join(event.to_json() + "\n" for event in self.events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Tracer events={len(self.events)} dropped={self.dropped}>"


def _time_text(time: float) -> str:
    """``repr(round(time, 6))`` for a finite ``float``: a line's ``"time"``.

    From 1e-4 up to 1e9 it is ``%.6f`` less its trailing zeros (one digit
    kept after the point), at under half the cost and with the same text:
    ``round`` and ``%.6f`` round the exact binary value half-even through
    one correctly rounded dtoa; below 1e9 the result has at most 15
    significant digits, which ``repr`` of the rounded double prints
    exactly; and ``repr`` is positional from 1e-4 up to 1e16.
    """
    if 1e-4 <= time < 1e9:
        text = ("%.6f" % time).rstrip("0")
        return text + "0" if text[-1] == "." else text
    return repr(round(time, 6))


class HashingTracer(TraceHooks):
    """A tracer that hashes the trace instead of storing it.

    :meth:`hexdigest` **is** the SHA-256 of the bytes
    :meth:`Tracer.dump_jsonl` would write, so it is byte-comparable
    with a dumped trace file — without holding a multi-hundred-MB
    timeline in memory during a macro benchmark.  With
    :func:`metrics_digest` it is a run's behaviour fingerprint: same
    seed ⇒ same trace hash and metrics digest, or behaviour changed.

    Lines are built from a per-tick head and cached encodings — of each
    ``str`` in them, of each callback's ``event_executed`` line up to its
    ``seq`` and of each message body — and hashed in batches; a value not
    recognised by exact type (``1 == True == 1.0``, encoded differently)
    takes ``TraceEvent.to_json``.
    """

    enabled = True
    FLUSH_LINES = 256  # per sha256.update: a few tens of KiB

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self._lines: list[str] = []  # awaiting the next sha256.update
        self._flushed = 0
        self._frags: dict[str, str] = {}  # exact str -> its JSON encoding
        self._prefixes: dict[str, str] = {}  # exact-str qualname -> line up to seq
        # (kind, src, dst, msg_type), all exact str -> the msg_send / msg_deliver body
        self._bodies: dict[tuple[str, str, str, str], str] = {}
        self._tick: Any = object()  # the time ``_head`` encodes; none yet
        self._head = ""

    @property
    def count(self) -> int:
        return self._flushed + len(self._lines)

    def _frag(self, text: str) -> str:
        return self._frags.get(text) or self._frags.setdefault(text, json.dumps(text))

    def _emit(self, time: Any, body: str) -> bool:
        """Buffer the line ``{"time": <time>, "kind": <body>`` — unless
        ``time`` is not a finite ``float``, which only ``to_json`` encodes."""
        if time is not self._tick:  # by identity: 0 == 0.0, encoded differently
            if type(time) is not float or not isfinite(time):
                return False
            self._tick = time
            self._head = f'{{"time": {_time_text(time)}, "kind": '
        lines = self._lines
        lines.append(self._head + body)
        if len(lines) >= self.FLUSH_LINES:
            self._flush()
        return True

    def _flush(self) -> None:
        self._hash.update("".join(self._lines).encode("utf-8"))
        self._flushed += len(self._lines)
        self._lines.clear()

    def record(self, time: float, kind: str, **data: Any) -> None:
        if type(kind) is str:
            parts = [self._frag(kind)]
            for key, value in data.items():
                exact = type(value)
                if exact is str:
                    encoded = self._frag(value)
                elif exact is int:
                    encoded = repr(value)
                elif exact is bool:
                    encoded = "true" if value else "false"
                else:
                    break
                parts.append(f", {self._frag(key)}: {encoded}")
            else:
                if self._emit(time, "".join(parts) + "}\n"):
                    return
        self._lines.append(TraceEvent(time, kind, data).to_json() + "\n")
        if len(self._lines) >= self.FLUSH_LINES:
            self._flush()

    def event(self, time: float, fn: Callable, seq: int, daemon: bool) -> None:
        name = getattr(fn, "__qualname__", None)
        prefix = self._prefixes.get(name)
        if prefix is not None and type(seq) is int and type(daemon) is bool:
            if time is not self._tick:  # as in _emit, without its frame
                if type(time) is not float or not isfinite(time):
                    return super().event(time, fn, seq, daemon)
                self._tick = time
                self._head = f'{{"time": {_time_text(time)}, "kind": '
            lines = self._lines
            lines.append(f'{self._head}{prefix}{seq}, "daemon": '
                         f'{"true" if daemon else "false"}}}\n')
            if len(lines) >= self.FLUSH_LINES:
                self._flush()
            return
        super().event(time, fn, seq, daemon)
        if prefix is None and type(name) is str:
            self._prefixes[name] = f'"event_executed", "fn": {self._frag(name)}, "seq": '

    def message(self, time: float, kind: str, src: Any, dst: Any,
                msg_type: str, reason: str | None = None) -> None:
        key = (kind, src, dst, msg_type)
        try:
            body = self._bodies.get(key) if reason is None else None
        except TypeError:  # an unhashable node id
            body = None
        if body is None:
            frags = self._frags
            try:
                why = "" if reason is None else f', "reason": {frags[reason]}'
                body = (f'{frags[kind]}{why}, "src": {frags[src]}, "dst": {frags[dst]}, '
                        f'"msg_type": {frags[msg_type]}}}\n')
            except (KeyError, TypeError):  # not cached yet, or not a string
                body = None
            if body and reason is None and all(type(part) is str for part in key):
                self._bodies[key] = body  # exact strs: 1, True and 1.0 never share a key
        if not (body and self._emit(time, body)):
            super().message(time, kind, src, dst, msg_type, reason)

    def hexdigest(self) -> str:
        """Digest of everything recorded so far; callable mid-run."""
        self._flush()
        return self._hash.hexdigest()


def metrics_digest(snapshot: dict) -> str:
    """Canonical digest of a ``MetricsRegistry.snapshot()``."""
    payload = json.dumps(snapshot, sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Free functions over events: a `Tracer`'s in-process list, or the ones
# the `repro trace` CLI loads back from JSONL.
# ---------------------------------------------------------------------------


def filter_events(
    events: Iterable[TraceEvent],
    kind: str | Iterable[str] | None = None,
    since: float | None = None,
    until: float | None = None,
    **match: Any,
) -> list[TraceEvent]:
    """Events matching a kind (or kinds), a time window, and exact field
    values (e.g. ``filter_events(events, kind="msg_drop",
    reason="crash")``)."""
    kinds: set[str] | None
    if kind is None:
        kinds = None
    elif isinstance(kind, str):
        kinds = {kind}
    else:
        kinds = set(kind)
    out = []
    for event in events:
        if kinds is not None and event.kind not in kinds:
            continue
        if since is not None and event.time < since:
            continue
        if until is not None and event.time > until:
            continue
        if match and any(
            event.data.get(key) != value for key, value in match.items()
        ):
            continue
        out.append(event)
    return out


def message_summary(events: Iterable[TraceEvent]) -> dict[str, dict[str, int]]:
    """``{message type: {"sent": n, "delivered": n, "dropped": n,
    "drop_reasons": {reason: n}}}``.

    ``drop_reasons`` separates the network's drops (``loss``,
    ``partition``, ``crash``) from client-side abandonment
    (``hedge_cancel`` — the losing attempt of a hedged call, whose
    reply may in fact still be delivered and ignored)."""
    summary: dict[str, dict[str, int]] = {}
    for event in events:
        if event.kind not in _MESSAGE_KINDS:
            continue
        msg_type = str(event.data.get("msg_type", "?"))
        row = summary.setdefault(
            msg_type,
            {"sent": 0, "delivered": 0, "dropped": 0, "drop_reasons": {}},
        )
        if event.kind == MSG_SEND:
            row["sent"] += 1
        elif event.kind == MSG_DELIVER:
            row["delivered"] += 1
        else:
            row["dropped"] += 1
            reason = str(event.data.get("reason", "?"))
            reasons = row["drop_reasons"]
            reasons[reason] = reasons.get(reason, 0) + 1
    return summary


def kind_counts(events: Iterable[TraceEvent]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for event in events:
        counts[event.kind] = counts.get(event.kind, 0) + 1
    return counts


def load_jsonl(path) -> list[TraceEvent]:
    """Read a trace dumped by :meth:`Tracer.dump_jsonl`.  A line that is
    not a JSON object with a numeric ``time`` raises ``ValueError``
    naming its (1-based) line number."""
    events = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                if type(record) is not dict:
                    raise ValueError("not a JSON object")
                time = float(record.pop("time", 0.0))
            except (TypeError, ValueError, OverflowError) as exc:  # bad JSON: ValueError
                raise ValueError(f"line {number}: {exc}") from None
            kind = str(record.pop("kind", "?"))
            events.append(TraceEvent(time, kind, record))
    return events
