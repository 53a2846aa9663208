"""The protocol-agnostic workload driver.

One closed-loop driver replaces the bespoke client scripts the
benchmarks used to carry: it consumes :class:`OpSpec` streams from any
generator in :mod:`repro.workload`, issues them against any
:class:`repro.api.ConsistentStore` session, records every operation
into a :class:`~repro.histories.TokenHistoryRecorder`, and returns a
:class:`DriverResult` whose history plugs straight into the checkers.

Shape::

    driver = WorkloadDriver(sim)
    lane = driver.add_session(store.session("alice"), workload.take(200),
                              think_time=5.0, timeout=500.0)
    driver.run()
    result = driver.result()
    check_session_guarantees(result.history, ...)

Lanes run concurrently; each lane is one session working through its
own op stream closed-loop (next op issues when the previous resolves).
``add_clients`` fans one shared stream across N sessions — the
standard YCSB closed-loop client pool.

Op semantics
------------
* ``read`` — ``session.get``; records a ``read``.
* ``update`` / ``insert`` — ``session.put``; records a ``write``.
* ``rmw`` — read-modify-write (YCSB workload F): a recorded ``read``,
  then a recorded ``write`` of ``rmw_fn(read value, spec.value)``
  (default: the spec's fresh value).  Skipped writes (failed read) are
  not issued.
* ``sleep`` — advance simulated time by ``float(spec.value)`` ms
  without touching the store.

This driver and the open-loop one (:mod:`.openloop`) are two
*schedulers* over one op-execution core, :class:`OpCore`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from ..analysis import LatencyStats
from ..errors import ReproError
from ..histories import History, TokenHistoryRecorder
from ..sim import Simulator, spawn
from .ycsb import OpSpec


@dataclass
class LaneStats:
    """Per-session outcome counts (E5's per-side availability etc.)."""

    name: Any
    ops: int = 0            # specs consumed (an rmw counts once)
    ok: int = 0
    failed: int = 0
    reads: int = 0
    writes: int = 0
    rmw: int = 0


@dataclass
class DriverResult:
    """What a finished run produced."""

    history: History
    lanes: list[LaneStats]
    duration: float                 # ms of simulated time the run spanned
    read_latency: LatencyStats
    write_latency: LatencyStats

    @property
    def ops_total(self) -> int:
        return sum(lane.ops for lane in self.lanes)

    @property
    def ops_ok(self) -> int:
        return sum(lane.ok for lane in self.lanes)

    @property
    def ops_failed(self) -> int:
        return sum(lane.failed for lane in self.lanes)

    @property
    def rmw_total(self) -> int:
        return sum(lane.rmw for lane in self.lanes)

    @property
    def throughput(self) -> float:
        """Completed client ops per simulated second."""
        if self.duration <= 0:
            return 0.0
        return self.ops_ok / (self.duration / 1000.0)


@dataclass
class _Lane:
    session: Any
    ops: Iterable[OpSpec]
    stats: LaneStats
    think_time: float = 0.0
    read_mode: str | None = None
    timeout: float | None = None
    rmw_fn: Callable[[Any, Any], Any] | None = None
    on_op: Callable[[OpSpec, bool], None] | None = None


def first_call(spec: OpSpec) -> tuple[str, Any]:
    """The store call ``spec`` starts with, as ``(kind, value)``: a
    ``read`` (alone, or an ``rmw``'s first half) or a ``write``."""
    if spec.op in ("read", "rmw"):
        return "read", None
    if spec.op in ("update", "insert", "write", "put"):
        return "write", spec.value
    raise ValueError(f"driver cannot run op {spec.op!r}")


def rmw_value(rmw_fn: Callable[[Any, Any], Any] | None, read: Any,
              spec: OpSpec) -> Any:
    """What an ``rmw`` writes back after reading ``read``."""
    return rmw_fn(read, spec.value) if rmw_fn is not None else spec.value


@dataclass(slots=True)
class _Op:
    """One store call between :meth:`OpCore._begin_op` and
    :meth:`OpCore._finish_op`."""

    kind: str                   # "read" | "write"
    handle: Any
    started: float
    value: Any                  # a write's attempted value
    future: Any = None          # None when the call raised at issue
    error: BaseException | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


class OpCore:
    """The op-execution core under both drivers: issue one store call,
    time it, stamp it with the serving tier, record it.

    A driver calls :meth:`_begin_op`, waits on ``op.future`` however
    its scheduler waits (a generator ``yield``, a completion
    callback), then calls :meth:`_finish_op`.
    """

    def __init__(self, sim: Simulator,
                 recorder: TokenHistoryRecorder | None = None) -> None:
        self.sim = sim
        #: Pass one recorder to several drivers to densify their
        #: histories together.
        self.recorder = recorder or TokenHistoryRecorder(sim)
        self.read_latency = LatencyStats()
        self.write_latency = LatencyStats()

    def _begin_op(self, session: Any, kind: str, key: Any, value: Any,
                  read_mode: str | None, timeout: float | None) -> _Op:
        """Record the invocation and issue the call (``kind`` is
        ``"read"`` or ``"write"``).  A call that raises synchronously
        leaves ``op.future`` unset and the error on the op."""
        op = _Op(kind,
                 self.recorder.begin(kind, key, session.name,
                                     replica=session.client_id),
                 self.sim.now, value)
        try:
            # Hold the future itself: cache-fronted stores stamp it
            # with the serving tier (cache hit vs backing read).
            if kind == "read":
                op.future = session.get(key, mode=read_mode, timeout=timeout)
            else:
                op.future = session.put(key, value, timeout=timeout)
        except ReproError as exc:
            op.error = exc
        return op

    def _finish_op(self, op: _Op) -> None:
        """Record the settled op: ``op.ok`` with a read's value in
        ``op.value``, or the cause in ``op.error``."""
        future = op.future
        if future is not None:
            op.error = future.error
        if op.error is not None:
            # Keep a write's attempted value: a timed-out write may
            # still have landed, and history() ties later reads of it
            # back here.
            self.recorder.fail(op.handle, value=op.value)
            return
        if op.kind == "read":
            op.value, token = future.value
            self.read_latency.record(self.sim.now - op.started)
        else:
            token = future.value
            self.write_latency.record(self.sim.now - op.started)
        self.recorder.complete_token(
            op.handle, token, op.value,
            tier=getattr(future, "served_tier", None),
        )


class WorkloadDriver(OpCore):
    """Closed-loop driver running op streams against store sessions."""

    def __init__(
        self,
        sim: Simulator,
        recorder: TokenHistoryRecorder | None = None,
    ) -> None:
        super().__init__(sim, recorder)
        self._lanes: list[_Lane] = []
        self._started = False
        self._start_time: float | None = None
        self._end_time: float | None = None
        self._active = 0
        self._processes: list = []

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    def add_session(
        self,
        session: Any,
        ops: Iterable[OpSpec],
        think_time: float = 0.0,
        read_mode: str | None = None,
        timeout: float | None = None,
        rmw_fn: Callable[[Any, Any], Any] | None = None,
        on_op: Callable[[OpSpec, bool], None] | None = None,
        label: Any = None,
    ) -> LaneStats:
        """Add one lane: ``session`` works through ``ops`` closed-loop.

        ``on_op(spec, ok)`` is called after each spec finishes — the
        hook benches use for phase-dependent accounting.
        """
        stats = LaneStats(label if label is not None else session.name)
        self._lanes.append(
            _Lane(session, ops, stats, think_time, read_mode, timeout,
                  rmw_fn, on_op)
        )
        return stats

    def add_clients(
        self,
        store: Any,
        clients: int,
        ops: Iterable[OpSpec],
        session_opts: dict | None = None,
        retry: Any = None,
        **lane_opts: Any,
    ) -> list[LaneStats]:
        """Fan one shared op stream across ``clients`` fresh sessions
        (the YCSB closed-loop client pool).

        ``retry`` attaches a :class:`repro.rpc.RetryPolicy` to every
        session it opens; the lanes' ``timeout`` then bounds each op's
        retrying call end-to-end (the policy's deadline).
        """
        opts = dict(session_opts or {})
        if retry is not None:
            opts["retry"] = retry
        shared = iter(ops)
        return [
            self.add_session(store.session(**opts), shared, **lane_opts)
            for _ in range(clients)
        ]

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn every lane's client process (idempotent)."""
        if self._started:
            return
        self._started = True
        self._start_time = self.sim.now
        for lane in self._lanes:
            self._active += 1
            self._processes.append(
                spawn(self.sim, self._lane_script(lane),
                      name=f"driver-{lane.stats.name}")
            )

    def run(self, until: float | None = None) -> "DriverResult":
        """Start (if needed) and run the simulation; returns the result.

        Protocol-level failures are recorded in the lane stats, but a
        bug in the workload itself (an op kind the driver cannot run,
        a broken ``rmw_fn``) is re-raised rather than swallowed.
        """
        self.start()
        self.sim.run(until)
        for process in self._processes:
            if process.error is not None:
                raise process.error
        return self.result()

    def result(self) -> DriverResult:
        if self._start_time is None:
            # Never started: zero duration, not a phantom span measured
            # from t=0 up to whatever the simulator clock reads now.
            duration = 0.0
        else:
            # Duration spans the lanes' work, not dangling timeout
            # timers the simulator may still drain after the last op
            # completes.  ``until`` can cut lanes off mid-op with
            # _end_time still behind _start_time; clamp at zero.
            end = self._end_time if self._active == 0 and \
                self._end_time is not None else self.sim.now
            duration = max(0.0, end - self._start_time)
        return DriverResult(
            history=self.recorder.history(),
            lanes=[lane.stats for lane in self._lanes],
            duration=duration,
            read_latency=self.read_latency,
            write_latency=self.write_latency,
        )

    # ------------------------------------------------------------------
    # Lane execution
    # ------------------------------------------------------------------
    def _lane_script(self, lane: _Lane):
        stats = lane.stats
        for spec in lane.ops:
            if spec.op == "sleep":
                yield float(spec.value)
                continue
            stats.ops += 1
            kind, value = first_call(spec)
            op = yield from self._run_op(lane, kind, spec.key, value)
            if spec.op == "rmw":
                stats.rmw += 1
                if op.ok:       # a failed read skips the write
                    op = yield from self._run_op(
                        lane, "write", spec.key,
                        rmw_value(lane.rmw_fn, op.value, spec))
            if op.ok:
                stats.ok += 1
            else:
                stats.failed += 1
            if lane.on_op is not None:
                lane.on_op(spec, op.ok)
            if lane.think_time > 0:
                yield lane.think_time
        self._active -= 1
        self._end_time = max(self._end_time or 0.0, self.sim.now)

    def _run_op(self, lane: _Lane, kind: str, key: Any, value: Any):
        """One store call closed-loop: the lane resumes when it settles."""
        if kind == "read":
            lane.stats.reads += 1
        else:
            lane.stats.writes += 1
        op = self._begin_op(lane.session, kind, key, value, lane.read_mode,
                            lane.timeout)
        if op.future is not None:
            try:
                yield op.future
            except ReproError:
                pass        # _finish_op reads the error off the future
        self._finish_op(op)
        return op


def run_workload(
    store: Any,
    ops: Iterable[OpSpec],
    clients: int = 1,
    session_opts: dict | None = None,
    recorder: TokenHistoryRecorder | None = None,
    until: float | None = None,
    retry: Any = None,
    nemesis: Any = None,
    arrivals: Any = None,
    autoscaler: Any = None,
    **lane_opts: Any,
) -> Any:
    """One-call convenience: drive ``ops`` against ``store`` and return
    the result.  ``retry`` applies one :class:`repro.rpc.RetryPolicy`
    across the whole client pool.

    Closed-loop by default (``clients`` lanes, one op in flight each,
    returning a :class:`DriverResult`).  Passing ``arrivals`` — an
    arrival process from :mod:`repro.workload.openloop` — switches to
    the open-loop engine: ops start at the arrival times regardless of
    completion, ``clients`` sizes the session pool, and the result is
    an :class:`~repro.workload.openloop.OpenLoopResult`.

    ``nemesis`` — a :class:`repro.chaos.Nemesis` (or anything with
    ``install(store)``/``stop()``) — is installed before the run and
    stopped after it (even when the run raises), so its fault plan
    executes alongside the workload.  Healing and settling are left to
    the caller: what post-fault recovery means is protocol- and
    checker-specific.

    ``autoscaler`` — a :class:`repro.membership.Autoscaler` (same
    ``install``/``stop`` shape) — runs its policy loop alongside the
    workload, scaling an elastic store while the ops flow.
    """
    if arrivals is not None:
        from .openloop import OpenLoopDriver

        driver: Any = OpenLoopDriver(
            store, arrivals, ops, sessions=clients,
            session_opts=session_opts, recorder=recorder, retry=retry,
            **lane_opts,
        )
    else:
        driver = WorkloadDriver(store.sim, recorder=recorder)
        driver.add_clients(store, clients, ops, session_opts=session_opts,
                           retry=retry, **lane_opts)
    if nemesis is not None:
        nemesis.install(store)
    if autoscaler is not None:
        autoscaler.install(store)
    try:
        return driver.run(until)
    finally:
        if nemesis is not None:
            nemesis.stop()
        if autoscaler is not None:
            autoscaler.stop()
