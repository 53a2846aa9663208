"""Client-side session guarantees (Terry et al.), as an enforcement layer.

The tutorial frames session guarantees as a *client library* concern:
the store stays eventually consistent, and the client tracks version
floors — the newest version it has written (for read-your-writes) and
read (for monotonic reads) per key — and refuses to accept replies
below its floor, retrying (same or another replica) until the floor is
met.  Writes-follow-reads and monotonic writes additionally require
the *store* to order writes after a floor; single-master stores
(timeline, primary-backup, Multi-Paxos) give both for free, which is
why this layer only needs the two read-side floors.

:class:`SessionClient` is store-agnostic: it wraps any pair of
``read_fn(key) -> Future[(value, version)]`` and
``write_fn(key, value) -> Future[version]`` callables — see
:func:`timeline_session` for the PNUTS adapter used in E3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable

from ..errors import TimeoutError as ReproTimeoutError
from ..histories import HistoryRecorder
from ..sim import Future, Simulator, spawn

GUARANTEES = ("ryw", "mr", "mw", "wfr")


@dataclass
class SessionStats:
    """Cost accounting for guarantee enforcement."""

    reads: int = 0
    writes: int = 0
    read_retries: int = 0
    reads_rejected_stale: int = 0


@dataclass
class SessionState:
    """The session token: per-key floors."""

    write_floor: dict = field(default_factory=dict)   # key -> version
    read_floor: dict = field(default_factory=dict)    # key -> version

    def required_version(self, key: Hashable, guarantees: frozenset) -> int:
        floor = 0
        if "ryw" in guarantees:
            floor = max(floor, self.write_floor.get(key, 0))
        if "mr" in guarantees:
            floor = max(floor, self.read_floor.get(key, 0))
        return floor

    def note_write(self, key: Hashable, version: int) -> None:
        current = self.write_floor.get(key, 0)
        if version > current:
            self.write_floor[key] = version

    def note_read(self, key: Hashable, version: int) -> None:
        current = self.read_floor.get(key, 0)
        if version > current:
            self.read_floor[key] = version


class SessionClient:
    """Wraps raw read/write functions with session-guarantee floors.

    Parameters
    ----------
    sim:
        The simulator (for retry timers).
    read_fn / write_fn:
        The underlying store operations.  ``read_fn`` may optionally
        accept an ``attempt`` keyword (used to spread retries across
        replicas); plain single-argument callables work too.
    guarantees:
        Any subset of ``{"ryw", "mr", "mw", "wfr"}``.  The read-side
        pair drives the retry loop; ``mw``/``wfr`` are recorded for
        introspection (single-master stores enforce them server-side).
    retry_delay:
        Backoff between stale-read retries, in ms.
    max_retries:
        Give up (fail the read future) after this many stale replies.
    """

    def __init__(
        self,
        sim: Simulator,
        read_fn: Callable[..., Future],
        write_fn: Callable[[Hashable, Any], Future],
        guarantees: Iterable[str] = (),
        retry_delay: float = 10.0,
        max_retries: int = 50,
        session_id: Hashable = "session",
    ) -> None:
        guarantees = frozenset(guarantees)
        unknown = guarantees - set(GUARANTEES)
        if unknown:
            raise ValueError(f"unknown guarantees: {sorted(unknown)}")
        self.sim = sim
        self.read_fn = read_fn
        self.write_fn = write_fn
        self.guarantees = guarantees
        self.retry_delay = retry_delay
        self.max_retries = max_retries
        self.state = SessionState()
        self.stats = SessionStats()
        self.session_id = session_id
        #: Client-observed history: only *accepted* replies appear, so
        #: checkers see what the application saw (raw store histories
        #: include the stale replies the floors rejected).
        self.recorder = HistoryRecorder(sim)
        self._accepts_attempt = self._probe_attempt_kwarg(read_fn)

    @staticmethod
    def _probe_attempt_kwarg(read_fn: Callable) -> bool:
        import inspect

        try:
            signature = inspect.signature(read_fn)
        except (TypeError, ValueError):  # pragma: no cover - builtins
            return False
        return "attempt" in signature.parameters

    # ------------------------------------------------------------------
    def write(self, key: Hashable, value: Any) -> Future:
        """Write through the store; floors advance on success."""
        self.stats.writes += 1
        handle = self.recorder.begin("write", key, self.session_id)
        inner = self.write_fn(key, value)
        outer = Future(self.sim, label=("session-write({!r})", key))

        def done(future: Future) -> None:
            if future.error is not None:
                self.recorder.fail(handle)
                outer.fail(future.error)
                return
            version = future.value
            self.state.note_write(key, version)
            self.recorder.complete(handle, version, value)
            outer.resolve(version)

        inner.add_callback(done)
        return outer

    def read(self, key: Hashable) -> Future:
        """Read honoring the session's floors; resolves (value, version)."""
        self.stats.reads += 1
        floor = self.state.required_version(key, self.guarantees)
        handle = self.recorder.begin("read", key, self.session_id)
        outer = Future(self.sim, label=("session-read({!r})", key))

        def attempt_read(attempt: int):
            if self._accepts_attempt:
                inner = self.read_fn(key, attempt=attempt)
            else:
                inner = self.read_fn(key)
            try:
                value, version = yield inner
            except Exception as exc:  # noqa: BLE001 - surface to caller
                self.recorder.fail(handle)
                outer.fail(exc)
                return
            if version >= floor:
                self.state.note_read(key, version)
                self.recorder.complete(handle, version, value)
                outer.resolve((value, version))
                return
            self.stats.reads_rejected_stale += 1
            if attempt >= self.max_retries:
                self.recorder.fail(handle)
                outer.fail(
                    ReproTimeoutError(
                        f"read of {key!r} below floor v{floor} after "
                        f"{attempt} retries"
                    )
                )
                return
            self.stats.read_retries += 1
            yield self.retry_delay
            spawn(self.sim, attempt_read(attempt + 1), name="session-retry")

        spawn(self.sim, attempt_read(1), name="session-read")
        return outer

    def history(self):
        """The session-level (client-observed) history."""
        return self.recorder.history()


def timeline_session(
    client,
    guarantees: Iterable[str] = ("ryw", "mr"),
    retry_delay: float = 10.0,
    spread_replicas: bool = False,
) -> SessionClient:
    """Session layer over a :class:`~repro.replication.TimelineClient`.

    Reads use ``read_any`` (cheap, possibly stale) and let the floor
    loop enforce the guarantees — the tutorial's point that session
    guarantees are purchasable *on top of* an eventually consistent
    read path.  With ``spread_replicas`` retries rotate the home
    replica, converting waiting into shopping around.
    """
    cluster = client.cluster

    def read_fn(key, attempt: int = 1) -> Future:
        if spread_replicas and attempt > 1:
            nodes = cluster.node_ids
            client.home = nodes[(attempt - 1) % len(nodes)]
        return client.read_any(key)

    def write_fn(key, value) -> Future:
        return client.write(key, value)

    return SessionClient(
        client.sim,
        read_fn,
        write_fn,
        guarantees=guarantees,
        retry_delay=retry_delay,
        session_id=client.session,
    )
