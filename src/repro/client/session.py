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
``read_fn(key, attempt, timeout) -> Future[(value, version)]`` and
``write_fn(key, value, timeout) -> Future[version]`` callables — see
:func:`timeline_session` for the PNUTS adapter used in E3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable

from ..errors import TimeoutError as ReproTimeoutError
from ..sim import Future, Simulator, spawn

GUARANTEES = ("ryw", "mr", "mw", "wfr")
#: Stale replies a read accepts before its future fails.
MAX_RETRIES = 50


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
        The underlying store operations.  ``read_fn(key, attempt,
        timeout)`` gets the 1-based attempt number (used to spread
        retries across replicas); both get the op's remaining time
        budget in ms, or None for no deadline.
    guarantees:
        Any subset of ``{"ryw", "mr", "mw", "wfr"}``.  The read-side
        pair drives the retry loop; ``mw``/``wfr`` are recorded for
        introspection (single-master stores enforce them server-side).
    retry_delay:
        Backoff between stale-read retries, in ms.

    A read gives up (fails its future) after :data:`MAX_RETRIES` stale
    replies, or when its ``timeout`` — which bounds the whole read,
    stale-read retries included — would expire before the next retry.
    """

    def __init__(
        self,
        sim: Simulator,
        read_fn: Callable[[Hashable, int, float | None], Future],
        write_fn: Callable[[Hashable, Any, float | None], Future],
        guarantees: Iterable[str] = (),
        retry_delay: float = 10.0,
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
        self.state = SessionState()
        self.stats = SessionStats()

    # ------------------------------------------------------------------
    def write(
        self, key: Hashable, value: Any, timeout: float | None = None
    ) -> Future:
        """Write through the store; floors advance on success."""
        self.stats.writes += 1
        inner = self.write_fn(key, value, timeout)
        outer = Future(self.sim, label=("session-write({!r})", key))

        def done(future: Future) -> None:
            if future.error is not None:
                outer.fail(future.error)
                return
            version = future.value
            self.state.note_write(key, version)
            outer.resolve(version)

        inner.add_callback(done)
        return outer

    def read(self, key: Hashable, timeout: float | None = None) -> Future:
        """Read honoring the session's floors; resolves (value, version)."""
        self.stats.reads += 1
        floor = self.state.required_version(key, self.guarantees)
        outer = Future(self.sim, label=("session-read({!r})", key))
        deadline = None if timeout is None else self.sim.now + timeout

        def attempt_read(attempt: int):
            remaining = None if deadline is None else deadline - self.sim.now
            try:
                value, version = yield self.read_fn(key, attempt, remaining)
            except Exception as exc:  # noqa: BLE001 - surface to caller
                outer.fail(exc)
                return
            if version >= floor:
                self.state.note_read(key, version)
                outer.resolve((value, version))
                return
            self.stats.reads_rejected_stale += 1
            if attempt >= MAX_RETRIES:
                outer.fail(
                    ReproTimeoutError(
                        f"read of {key!r} below floor v{floor} after "
                        f"{attempt} retries"
                    )
                )
                return
            if deadline is not None and \
                    self.sim.now + self.retry_delay >= deadline:
                outer.fail(
                    ReproTimeoutError(
                        f"read of {key!r} below floor v{floor} at its "
                        "deadline"
                    )
                )
                return
            self.stats.read_retries += 1
            yield self.retry_delay
            spawn(self.sim, attempt_read(attempt + 1), name="session-retry")

        spawn(self.sim, attempt_read(1), name="session-read")
        return outer


def timeline_session(
    client,
    guarantees: Iterable[str] = ("ryw", "mr"),
    retry_delay: float = 10.0,
) -> SessionClient:
    """Session layer over a :class:`~repro.replication.TimelineClient`.

    Reads use ``read_any`` (cheap, possibly stale) and let the floor
    loop enforce the guarantees — the tutorial's point that session
    guarantees are purchasable *on top of* an eventually consistent
    read path.
    """
    def read_fn(key, attempt: int, timeout: float | None) -> Future:
        return client.read_any(key, timeout=timeout)

    def write_fn(key, value, timeout: float | None) -> Future:
        return client.write(key, value, timeout=timeout)

    return SessionClient(
        client.sim,
        read_fn,
        write_fn,
        guarantees=guarantees,
        retry_delay=retry_delay,
    )
