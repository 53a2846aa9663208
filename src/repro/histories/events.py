"""History event types.

Conventions the checkers rely on:

* Writes carry a per-key **version**: an integer that totally orders
  the installed writes of one key (assigned by the master, the commit
  protocol, or the LWW arbitration rank).  Version 0 means "the
  initial, never-written state".
* Reads record the version they observed (0 when the key was unborn).
* ``session`` identifies a client session — the unit over which the
  Terry et al. session guarantees are defined.
* Times are simulator milliseconds: ``start`` (invocation) and ``end``
  (response).  A failed/incomplete op has ``end = None`` and is ignored
  by most checkers (and treated as possibly-applied by the
  linearizability checker).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Hashable, Iterable, Iterator, NamedTuple

_op_ids = itertools.count(1)


@dataclass(frozen=True)
class Operation:
    """One client-observed operation."""

    kind: str                 # "read" | "write"
    key: Hashable
    version: int              # per-key total order rank (0 = unborn)
    session: Hashable
    start: float
    end: float | None
    value: Any = None
    op_id: int = field(default_factory=lambda: next(_op_ids), init=False)
    #: Which serving tier answered: ``"cache"`` for a cache hit,
    #: ``"store"`` for a read/write that reached the backing store,
    #: ``None`` when the history was recorded below any cache.  Lets
    #: the staleness checkers attribute staleness to the tier that
    #: caused it instead of assuming every op observed the
    #: authoritative store.
    tier: Hashable = None

    @property
    def is_read(self) -> bool:
        return self.kind == "read"

    @property
    def is_write(self) -> bool:
        return self.kind == "write"

    @property
    def completed(self) -> bool:
        return self.end is not None

    def __repr__(self) -> str:
        span = f"{self.start:.2f}-{self.end:.2f}" if self.completed else f"{self.start:.2f}-?"
        return (
            f"<{self.kind} {self.key!r}=v{self.version} s={self.session} "
            f"[{span}]>"
        )


def make_write(
    key: Hashable,
    version: int,
    session: Hashable = "s0",
    start: float = 0.0,
    end: float | None = 0.0,
) -> Operation:
    """Test/bench helper: a completed write operation (no value)."""
    return Operation("write", key, version, session, start, end)


def make_read(
    key: Hashable,
    version: int,
    session: Hashable = "s0",
    start: float = 0.0,
    end: float | None = 0.0,
) -> Operation:
    """Test/bench helper: a completed read operation (no value)."""
    return Operation("read", key, version, session, start, end)


class _Index(NamedTuple):
    """Every view of a :class:`History`, built by one scan of its ops."""

    completed: tuple[Operation, ...]
    reads: tuple[Operation, ...]       # completed reads
    writes: tuple[Operation, ...]      # all writes, responded or not
    by_session: dict[Hashable, tuple[Operation, ...]]   # completed ops
    by_key: dict[Hashable, tuple[Operation, ...]]       # all ops
    # Per key, completed writes only:
    writes_by_version: dict[Hashable, tuple[Operation, ...]]
    writes_by_end: dict[Hashable, tuple[Operation, ...]]
    write_at: dict[tuple[Hashable, int], Operation]


class History:
    """An immutable collection of operations with indexed views.

    The views are built once, lazily, on first use (``add``/``extend``
    return a new ``History`` with fresh indexes), so a checker pays one
    O(n log n) index build per history and a lookup per view after it.
    """

    def __init__(self, operations: Iterable[Operation] = ()) -> None:
        self._ops: tuple[Operation, ...] = tuple(
            sorted(operations, key=lambda op: (op.start, op.op_id))
        )

    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Operation]:
        return iter(self._ops)

    def __len__(self) -> int:
        return len(self._ops)

    def __getitem__(self, index: int) -> Operation:
        return self._ops[index]

    def add(self, op: Operation) -> "History":
        return History(self._ops + (op,))

    def extend(self, ops: Iterable[Operation]) -> "History":
        return History(self._ops + tuple(ops))

    @cached_property
    def _index(self) -> _Index:
        """The only scan of the op tuple.  ``_ops`` is sorted by
        ``(start, op_id)``, so every per-session and per-key list comes
        out in program order without another sort."""
        completed, reads, writes = [], [], []
        by_session: dict = {}
        by_key: dict = {}
        done_writes: dict = {}
        write_at = {}
        for op in self._ops:
            # A session that holds only incomplete ops is still a session.
            in_session = by_session.setdefault(op.session, [])
            by_key.setdefault(op.key, []).append(op)
            if op.kind == "write":
                writes.append(op)
            if op.end is None:
                continue
            completed.append(op)
            in_session.append(op)
            if op.kind == "read":
                reads.append(op)
            elif op.kind == "write":
                done_writes.setdefault(op.key, []).append(op)
                write_at[op.key, op.version] = op   # latest duplicate wins

        def frozen(groups: dict, order: Any = None) -> dict:
            return {
                group: tuple(sorted(ops, key=order) if order else ops)
                for group, ops in groups.items()
            }

        return _Index(
            tuple(completed), tuple(reads), tuple(writes),
            frozen(by_session), frozen(by_key),
            frozen(done_writes, lambda op: op.version),
            frozen(done_writes, lambda op: op.end), write_at,
        )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def completed(self) -> tuple[Operation, ...]:
        return self._index.completed

    def by_session(self, session: Hashable) -> tuple[Operation, ...]:
        """Completed ops of one session, in session (program) order."""
        return self._index.by_session.get(session, ())

    @property
    def sessions(self) -> list[Hashable]:
        return list(self._index.by_session)

    def by_key(self, key: Hashable) -> tuple[Operation, ...]:
        return self._index.by_key.get(key, ())

    @property
    def keys(self) -> list[Hashable]:
        return list(self._index.by_key)

    def reads(self) -> tuple[Operation, ...]:
        return self._index.reads

    def writes(self) -> tuple[Operation, ...]:
        return self._index.writes

    def writes_by_version(self, key: Hashable) -> tuple[Operation, ...]:
        """Completed writes of ``key`` in version order."""
        return self._index.writes_by_version.get(key, ())

    def writes_by_end(self, key: Hashable) -> tuple[Operation, ...]:
        """Completed writes of ``key`` in completion-time order."""
        return self._index.writes_by_end.get(key, ())

    def write_at(self, key: Hashable, version: int) -> Operation | None:
        """The completed write that installed ``version`` of ``key``."""
        return self._index.write_at.get((key, version))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<History ops={len(self._ops)} sessions={len(self.sessions)}>"
