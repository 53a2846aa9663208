"""Recording histories from live simulations.

The recorder is deliberately dumb: protocols call ``begin`` when a
client operation is invoked and ``complete``/``fail`` when it returns.
Everything clever happens later, in the checkers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable

from ..sim import Simulator
from .events import History, Operation


@dataclass
class _PendingOp:
    kind: str
    key: Hashable
    session: Hashable
    start: float
    replica: Hashable


class HistoryRecorder:
    """Accumulates operations as they complete."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._pending: dict[int, _PendingOp] = {}
        self._next_handle = 0
        self._ops: list[Operation] = []

    def begin(
        self,
        kind: str,
        key: Hashable,
        session: Hashable,
        replica: Hashable = None,
    ) -> int:
        """Record an invocation; returns a handle for completion."""
        self._next_handle += 1
        self._pending[self._next_handle] = _PendingOp(
            kind, key, session, self.sim.now, replica
        )
        return self._next_handle

    def complete(
        self,
        handle: int,
        version: int,
        value: Any = None,
        replica: Hashable = None,
        tier: Hashable = None,
    ) -> Operation:
        """Record a successful response for ``handle``.

        ``tier`` names the serving tier that answered (``"cache"`` /
        ``"store"``) when the history is recorded at a cache boundary.
        """
        pending = self._pending.pop(handle)
        op = Operation(
            kind=pending.kind,
            key=pending.key,
            version=version,
            session=pending.session,
            start=pending.start,
            end=self.sim.now,
            value=value,
            replica=replica if replica is not None else pending.replica,
            tier=tier,
        )
        self._ops.append(op)
        return op

    def fail(self, handle: int, value: Any = None) -> Operation:
        """Record an operation that never produced a response.

        ``value`` is the value a write *attempted* — kept on the op so
        checkers can tie a later read of that value back to this
        maybe-applied write."""
        pending = self._pending.pop(handle)
        op = Operation(
            kind=pending.kind,
            key=pending.key,
            version=0,
            session=pending.session,
            start=pending.start,
            end=None,
            value=value,
            replica=pending.replica,
        )
        self._ops.append(op)
        return op

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def history(self) -> History:
        """Snapshot the history recorded so far."""
        return History(self._ops)

    def record(self, op: Operation) -> None:
        """Append an externally built operation (for composition)."""
        self._ops.append(op)


@dataclass
class _TokenOp:
    kind: str
    key: Hashable
    session: Hashable
    start: float
    end: float | None
    token: Any
    value: Any
    replica: Hashable
    tier: Hashable = None


def _observation(raw: _TokenOp) -> tuple | None:
    """``(key, value)`` as a dict key for tying values to versions;
    ``None`` when there is no value or it is unhashable (the cluster
    clients record whatever value the application wrote, e.g. a list)
    and so cannot be tied back."""
    if raw.value is None:
        return None
    try:
        hash(raw.value)
    except TypeError:
        return None
    return raw.key, raw.value


class TokenHistoryRecorder(HistoryRecorder):
    """A recorder for version *tokens* instead of integer versions.

    The protocols stamp operations with heterogeneous version metadata
    — Lamport stamps, causal ranks, per-record sequence numbers —
    whose only shared property is a total order *within a key*.  This
    recorder accepts those tokens directly (:meth:`complete_token`)
    and densifies them into per-key integer versions at
    :meth:`history` time.  It is the one densifier: the workload
    driver records through it against any store behind the
    :mod:`repro.api` interface, and the quorum and causal clusters
    record their own client-side histories through it too.

    Falsy tokens (``None``, ``0``, empty context) mean "nothing
    observed" and map to version 0, the checkers' initial state.
    """

    def __init__(self, sim: Simulator) -> None:
        super().__init__(sim)
        self._token_ops: list[_TokenOp] = []

    def complete_token(
        self,
        handle: int,
        token: Any,
        value: Any = None,
        replica: Hashable = None,
        tier: Hashable = None,
    ) -> None:
        """Record a successful response carrying a version token.

        ``tier`` tags the op with the serving tier (``"cache"`` /
        ``"store"``) when the caller drives a cache-fronted store."""
        pending = self._pending.pop(handle)
        self._token_ops.append(
            _TokenOp(
                pending.kind, pending.key, pending.session, pending.start,
                self.sim.now, token if token else None, value,
                replica if replica is not None else pending.replica,
                tier,
            )
        )

    def fail(  # type: ignore[override]
        self, handle: int, value: Any = None
    ) -> None:
        """Record an operation that never produced a response.
        ``value`` is a write's attempted value (see below)."""
        pending = self._pending.pop(handle)
        self._token_ops.append(
            _TokenOp(
                pending.kind, pending.key, pending.session, pending.start,
                None, None, value, pending.replica,
            )
        )

    def history(self) -> History:
        """Densify tokens into per-key versions; reads contribute their
        observed tokens too, so writes that timed out client-side but
        landed on replicas still rank consistently.

        A failed write carries no token (the server assigns it), but if
        a completed op later *observed* the write's attempted value, the
        write's version is inferred from that observation — otherwise a
        read of a maybe-applied write is an orphan version no write op
        explains, and the linearizability checker reports a phantom
        violation.  Inference only fires when the value maps to exactly
        one version for the key (workload values are unique)."""
        tokens_by_key: dict[Hashable, set] = {}
        for raw in self._token_ops:
            if raw.token is not None:
                tokens_by_key.setdefault(raw.key, set()).add(raw.token)
        rank: dict[tuple[Hashable, Any], int] = {}
        for key, tokens in tokens_by_key.items():
            for index, token in enumerate(sorted(tokens), start=1):
                rank[(key, token)] = index
        ambiguous = object()
        seen_versions: dict[tuple[Hashable, Any], Any] = {}
        for raw in self._token_ops:
            observed = _observation(raw)
            if raw.token is None or observed is None:
                continue
            version = rank[(raw.key, raw.token)]
            if seen_versions.setdefault(observed, version) != version:
                seen_versions[observed] = ambiguous
        ops = list(self._ops)
        for raw in self._token_ops:
            version = 0
            if raw.token is not None:
                version = rank.get((raw.key, raw.token), 0)
            elif raw.end is None and raw.kind == "write":
                inferred = seen_versions.get(_observation(raw))
                if isinstance(inferred, int):
                    version = inferred
            ops.append(
                Operation(
                    kind=raw.kind,
                    key=raw.key,
                    version=version,
                    session=raw.session,
                    start=raw.start,
                    end=raw.end,
                    value=raw.value,
                    replica=raw.replica,
                    tier=raw.tier,
                )
            )
        return History(ops)
