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

The search runs on bit sets.  A key's ops are numbered in response
order (no response = last), so a state is ``(remaining mask, version)``
and the earliest-responding remaining op — the *frontier* — is the
mask's lowest set bit.  The ops that may be linearized next are the
remaining ones invoked no later than the frontier responded, one
precomputed mask per op.  A candidate read of the current version is
linearized at once, with no sibling branches: a read changes no state
and no remaining op must precede it.  The depth-first search keeps an
explicit stack, so a key with thousands of ops does not recurse, and a
benign history costs O(n·c), c being the ops concurrent with the
frontier.

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


def _check_single_key(
    key: Hashable, ops: Sequence[Operation], max_states: int
) -> str | None:
    """None if linearizable, else a violation description."""
    # A read with no response constrains nothing.  Bit i is the op with
    # the i-th earliest response, no response counting as last.
    candidates = sorted([
        (_INFINITY if op.end is None else op.end, index, op)
        for index, op in enumerate(ops)
        if op.end is not None or op.kind == "write"
    ])
    if not candidates:
        return None
    invoked = sorted([(op.start, i) for i, (_, _, op) in enumerate(candidates)])
    startable = []    # startable[i]: the ops invoked by op i's response
    reads_of: dict[int, int] = {}     # version -> mask of reads returning it
    versions, writes, pending, mask, j = [], 0, 0, 0, 0
    for i, (end, _, op) in enumerate(candidates):
        while j < len(invoked) and invoked[j][0] <= end:
            mask |= 1 << invoked[j][1]
            j += 1
        startable.append(mask)
        versions.append(op.version)
        if op.kind == "write":
            writes |= 1 << i
            if op.end is None:
                pending |= 1 << i
        else:
            reads_of[op.version] = reads_of.get(op.version, 0) | 1 << i

    seen: set[tuple[int, int]] = set()
    budget = max_states
    stack = [((1 << len(candidates)) - 1, 0)]
    while stack:
        remaining, version = stack.pop()
        # Linearize every candidate read of the current version first.
        matching = reads_of.get(version, 0)
        while True:
            frontier = (remaining & -remaining).bit_length() - 1
            ready = remaining & startable[frontier]
            matched = ready & matching
            if not matched:
                break
            remaining ^= matched
            if not remaining:
                return None
        state = (remaining, version)
        if state in seen:
            continue
        if budget <= 0:
            return (
                f"key {key!r}: undecided — state budget exhausted "
                f"({max_states} states)"
            )
        budget -= 1
        seen.add(state)
        # Pushed in reverse, so the earliest-responding write runs first.
        children = []
        ready &= writes
        while ready:
            bit = ready & -ready
            ready ^= bit
            rest = remaining ^ bit
            if not rest:
                return None
            children.append((rest, versions[bit.bit_length() - 1]))
            # A write with no response may also never take effect.
            if bit & pending:
                children.append((rest, version))
        stack.extend(reversed(children))
    return f"key {key!r}: no linearization of {len(candidates)} ops exists"
