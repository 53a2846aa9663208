"""Recording histories from live simulations.

The recorder is deliberately dumb: the workload driver calls ``begin``
when a client operation is invoked and ``complete_token``/``fail`` when
it returns.  Everything clever happens later, in the checkers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable

from ..sim import Simulator
from .events import History, Operation


@dataclass(slots=True)
class _TokenOp:
    kind: str
    key: Hashable
    session: Hashable
    start: float
    end: float | None
    token: Any
    value: Any
    tier: Hashable = None


def _observation(raw: _TokenOp) -> tuple | None:
    """``(key, value)`` as a dict key for tying values to versions;
    ``None`` when there is no value or it is unhashable (the
    application may write any value, e.g. a list) and so cannot be
    tied back."""
    if raw.value is None:
        return None
    try:
        hash(raw.value)
    except TypeError:
        return None
    return raw.key, raw.value


class TokenHistoryRecorder:
    """Accumulates client operations, versioned by *tokens*.

    The protocols stamp operations with heterogeneous version metadata
    — Lamport stamps, causal ranks, per-record sequence numbers —
    whose only shared property is a total order *within a key*.  This
    recorder accepts those tokens directly (:meth:`complete_token`)
    and densifies them into per-key integer versions at
    :meth:`history` time.  The workload drivers are its only writers
    (:class:`repro.workload.driver.OpCore`): one record per op, taken
    at the client boundary of any store behind the :mod:`repro.api`
    interface.

    Falsy tokens (``None``, ``0``, empty context) mean "nothing
    observed" and map to version 0, the checkers' initial state.
    Operations are kept in completion order.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._token_ops: list[_TokenOp] = []

    def begin(self, kind: str, key: Hashable, session: Hashable) -> tuple:
        """Record an invocation; returns the handle to complete."""
        return kind, key, session, self.sim.now

    def complete_token(
        self,
        handle: tuple,
        token: Any,
        value: Any = None,
        tier: Hashable = None,
    ) -> None:
        """Record a successful response carrying a version token.

        ``tier`` tags the op with the serving tier (``"cache"`` /
        ``"store"``) when the caller drives a cache-fronted store."""
        kind, key, session, start = handle
        self._token_ops.append(_TokenOp(
            kind, key, session, start, self.sim.now,
            token if token else None, value, tier,
        ))

    def fail(self, handle: tuple, value: Any = None) -> None:
        """Record an operation that never produced a response.
        ``value`` is a write's attempted value (see below)."""
        kind, key, session, start = handle
        self._token_ops.append(_TokenOp(
            kind, key, session, start, None, None, value,
        ))

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
        ops = []
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
                    tier=raw.tier,
                )
            )
        return History(ops)
