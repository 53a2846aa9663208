"""Linearizability checker (Wing–Gong search with memoization).

Linearizability is the strong end of the tutorial's spectrum: every
operation appears to take effect atomically between its invocation and
response.  Checking a recorded register history is NP-complete in
general; the classic Wing–Gong depth-first search with Lowe's
memoization is exact and fast on the histories our simulator produces.

Linearizability is *local* (a history is linearizable iff each key's
sub-history is), so we check per key and join the results — this is
what keeps the checker usable on multi-key workloads, and E11 measures
the residual exponential worst case on adversarial single-key
histories.

Semantics: writes install distinct versions of a key; a read returns
the version of the most recent linearized write (0 = initial state).
Operations with ``end is None`` (no response observed) may have taken
effect or not; the checker tries both.
"""

from __future__ import annotations

import math
from typing import Hashable, Sequence

from ..histories import History, Operation
from .base import Verdict

_INFINITY = math.inf


def check_linearizability(
    history: History, max_states: int = 2_000_000
) -> Verdict:
    """Check the whole history, key by key.

    ``max_states`` bounds the search per key; if exhausted the verdict
    reports a violation flagged ``undecided`` rather than hanging.
    """
    verdict = Verdict("linearizability")
    verdict.checked_ops = len(history.completed)
    for key in history.keys:
        result = _check_single_key(key, history.by_key(key), max_states)
        if result is not None:
            verdict.add(result, ops=())
    return verdict


def check_linearizability_key(
    history: History, key: Hashable, max_states: int = 2_000_000
) -> bool:
    """Convenience: is the sub-history of ``key`` linearizable?"""
    return _check_single_key(key, history.by_key(key), max_states) is None


def _check_single_key(
    key: Hashable, ops: Sequence[Operation], max_states: int
) -> str | None:
    """None if linearizable, else a violation description."""
    if not ops:
        return None
    # A read with no response constrains nothing.
    reads = [op for op in ops if op.is_read and op.completed]
    writes = [op for op in ops if op.is_write]

    candidates = reads + writes
    id_to_op = {op.op_id: op for op in candidates}
    end_of = {
        op.op_id: (op.end if op.completed else _INFINITY) for op in candidates
    }
    start_of = {op.op_id: op.start for op in candidates}
    pending_write_ids = frozenset(
        op.op_id for op in writes if not op.completed
    )

    all_ids = frozenset(id_to_op)
    seen_states: set[tuple[frozenset, int]] = set()
    budget = [max_states]

    def dfs(remaining: frozenset, version: int) -> bool:
        if not remaining:
            return True
        state = (remaining, version)
        if state in seen_states:
            return False
        if budget[0] <= 0:
            return False
        budget[0] -= 1
        seen_states.add(state)
        # An op may be linearized first among `remaining` iff no other
        # remaining op responded before it was invoked.
        frontier = min(end_of[op_id] for op_id in remaining)
        for op_id in remaining:
            if start_of[op_id] > frontier:
                continue
            op = id_to_op[op_id]
            rest = remaining - {op_id}
            if op.is_read:
                if op.version == version and dfs(rest, version):
                    return True
            else:
                if dfs(rest, op.version):
                    return True
                # A write with no response may also never take effect.
                if op_id in pending_write_ids and dfs(rest, version):
                    return True
        return False

    ok = dfs(all_ids, 0)
    if ok:
        return None
    if budget[0] <= 0:
        return (
            f"key {key!r}: undecided — state budget exhausted "
            f"({max_states} states)"
        )
    return f"key {key!r}: no linearization of {len(candidates)} ops exists"
