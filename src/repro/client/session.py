"""Client-side session guarantees (Terry et al.), as an enforcement layer.

The tutorial frames session guarantees as a *client library* concern:
the store stays eventually consistent, and the client tracks version
floors — the newest version it has written (for read-your-writes) and
read (for monotonic reads) per key — and refuses to accept replies
below its floor, retrying until the floor is met.  Writes-follow-reads
and monotonic writes additionally require the *store* to order writes
after a floor (single-master stores give both for free); no client-side
floor can, so this layer enforces only the two read-side floors.

:class:`SessionState` is the one floor record; the timeline client and
the Pileus SLA client keep one too.  :class:`SessionClient` wraps any
:class:`~repro.api.store.StoreSession` whose reads resolve tokens
ordered within a key (ints for timeline, Lamport stamps for quorum).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable

from ..api.store import StoreSession
from ..errors import TimeoutError as ReproTimeoutError
from ..sim import Future, Simulator, spawn

#: The guarantees a client-side floor can enforce.
GUARANTEES = ("ryw", "mr")
#: Stale replies a read accepts before its future fails.
MAX_RETRIES = 50


@dataclass
class SessionStats:
    """Cost accounting for guarantee enforcement."""

    reads: int = 0
    writes: int = 0
    read_retries: int = 0
    reads_rejected_stale: int = 0


def _raise(floors: dict, key: Hashable, token: Any) -> None:
    if token is not None and (key not in floors or token > floors[key]):
        floors[key] = token


@dataclass
class SessionState:
    """The session token: per-key floors over version tokens (``None``,
    "nothing", raises no floor and meets none)."""

    write_floor: dict = field(default_factory=dict)   # key -> token
    read_floor: dict = field(default_factory=dict)    # key -> token

    def required(self, key: Hashable, guarantees: Iterable[str]) -> Any:
        """The highest floor ``guarantees`` put on ``key``, or ``None``."""
        floors = [floor[key] for name, floor in (("ryw", self.write_floor),
                                                 ("mr", self.read_floor))
                  if name in guarantees and key in floor]
        return max(floors) if floors else None

    def note_write(self, key: Hashable, token: Any) -> None:
        _raise(self.write_floor, key, token)

    def note_read(self, key: Hashable, token: Any) -> None:
        _raise(self.read_floor, key, token)


class SessionClient(StoreSession):
    """Wraps a store session with read-your-writes and monotonic-read
    floors.

    Parameters
    ----------
    sim:
        The simulator (for retry timers).
    session:
        The store session to wrap; its ``get`` must resolve
        ``(value, token)`` with tokens ordered within a key.
    guarantees:
        Any subset of :data:`GUARANTEES`.
    retry_delay:
        Backoff between stale-read retries, in ms.

    A read gives up (fails its future) after :data:`MAX_RETRIES` stale
    replies, or when its ``timeout`` — which bounds the whole read,
    stale-read retries included — would expire before the next retry.
    """

    def __init__(
        self,
        sim: Simulator,
        session: StoreSession,
        guarantees: Iterable[str],
        retry_delay: float = 10.0,
    ) -> None:
        guarantees = frozenset(guarantees)
        unknown = guarantees - set(GUARANTEES)
        if unknown:
            raise ValueError(
                f"a client-side floor enforces only {GUARANTEES}; "
                f"got {sorted(unknown)}"
            )
        self.sim = sim
        self.session = session
        self.name = session.name
        self.client_id = session.client_id
        self.read_preference = session.read_preference
        self.region = session.region
        self.guarantees = guarantees
        self.retry_delay = retry_delay
        self.token = SessionState()
        self.stats = SessionStats()

    def put(
        self, key: Hashable, value: Any, timeout: float | None = None
    ) -> Future:
        """Write through the store; floors advance on success."""
        self.stats.writes += 1
        inner = self.session.put(key, value, timeout)
        outer = Future(self.sim, label=("session-write({!r})", key))

        def done(future: Future) -> None:
            if future.error is not None:
                outer.fail(future.error)
                return
            self.token.note_write(key, future.value)
            outer.resolve(future.value)

        inner.add_callback(done)
        return outer

    def get(
        self,
        key: Hashable,
        mode: str | None = None,
        timeout: float | None = None,
    ) -> Future:
        """Read honoring the session's floors; resolves (value, token)."""
        self.stats.reads += 1
        floor = self.token.required(key, self.guarantees)
        outer = Future(self.sim, label=("session-read({!r})", key))
        deadline = None if timeout is None else self.sim.now + timeout

        def attempt_read(attempt: int):
            remaining = None if deadline is None else deadline - self.sim.now
            try:
                value, token = yield self.session.get(key, mode, remaining)
            except Exception as exc:  # noqa: BLE001 - surface to caller
                outer.fail(exc)
                return
            if floor is None or (token is not None and token >= floor):
                self.token.note_read(key, token)
                outer.resolve((value, token))
                return
            self.stats.reads_rejected_stale += 1
            if attempt >= MAX_RETRIES:
                reason = f"after {attempt} retries"
            elif deadline is not None and \
                    self.sim.now + self.retry_delay >= deadline:
                reason = "at its deadline"
            else:
                self.stats.read_retries += 1
                yield self.retry_delay
                spawn(self.sim, attempt_read(attempt + 1),
                      name="session-retry")
                return
            outer.fail(ReproTimeoutError(
                f"read of {key!r} below floor {floor} {reason}"))

        spawn(self.sim, attempt_read(1), name="session-read")
        return outer
