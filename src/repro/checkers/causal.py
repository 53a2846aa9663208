"""Causal consistency checker.

Given a history where each read records the (per-key versioned) write
it returned, causal consistency requires an order containing

* session (program) order,
* reads-from order (a write precedes any read returning it),
* per-key version order (v1 < v2 for the same key),

under which no read returns a write that the order already supersedes:
if write ``w'`` (same key, another version) causally precedes read
``r`` and the write ``w`` that ``r`` returned causally precedes ``w'``,
then ``r`` read an overwritten value — a causality violation.

With version order given, this is the polynomial-time variant
(transitive closure + one pass over reads); E11 contrasts its cost
with linearizability's exponential search.
"""

from __future__ import annotations

from typing import Sequence

from ..histories import History, Operation
from .base import Verdict


def _causal_order(
    history: History, index_of: dict[int, int]
) -> tuple[list[int], list[int]]:
    """Return ``(closed, cyclic)``: ``closed[i]`` is the bitset of the
    completed ops causally before completed op ``i``, transitively
    closed (bit ``j`` is ``history.completed[j]``); ``cyclic`` lists
    the ops no topological order can place."""
    n = len(history.completed)
    successors: list[list[int]] = [[] for _ in range(n)]
    waiting = [0] * n               # direct predecessors not yet closed

    def chain(linked: Sequence[Operation]) -> None:
        for earlier, later in zip(linked, linked[1:]):
            after = index_of[later.op_id]
            successors[index_of[earlier.op_id]].append(after)
            waiting[after] += 1

    for session in history.sessions:
        chain(history.by_session(session))
    for key in history.keys:
        chain(history.writes_by_version(key))
    for op in history.reads():
        writer = history.write_at(op.key, op.version)
        if writer is not None and op.version > 0:
            chain((writer, op))

    closed = [0] * n
    ready = [i for i in range(n) if not waiting[i]]
    for i in ready:                 # Kahn: grows as successors become ready
        before_successor = closed[i] | 1 << i
        for j in successors[i]:
            closed[j] |= before_successor
            waiting[j] -= 1
            if not waiting[j]:
                ready.append(j)

    # What Kahn leaves over sits on or behind a cycle: an inconsistent
    # history, and the only ops that are iterated to a fixpoint.
    cyclic = [i for i in range(n) if waiting[i]]
    changed = bool(cyclic)
    while changed:
        changed = False
        for i in cyclic:
            before_successor = closed[i] | 1 << i
            for j in successors[i]:
                if closed[j] | before_successor != closed[j]:
                    closed[j] |= before_successor
                    changed = True
    return closed, cyclic


def check_causal(history: History) -> Verdict:
    """Check causal consistency given per-key version order.

    Cost: O(n + e) to build the edges from the history's indexes (e < 3n:
    consecutive ops of a session, consecutive versions of a key, one
    reads-from edge per read), then one big-int OR per edge in
    topological order and one mask per read: n bitsets of at most n
    bits, n²/8 bytes of closure (0.7 MB at 2400 ops).  A violating read
    names the superseding write with the lowest history index, so the
    message is a function of the history alone.
    """
    verdict = Verdict("causal-consistency")
    ops = history.completed
    index_of = {op.op_id: i for i, op in enumerate(ops)}
    closed, cyclic = _causal_order(history, index_of)
    for i in cyclic:
        # An op causally preceding itself means the session/reads-from/
        # version orders contradict each other.
        if closed[i] >> i & 1:
            verdict.add(f"causality cycle through {ops[i]!r}", ops=(ops[i],))

    writes_to: dict = {}            # key -> bitset of its completed writes
    for i, op in enumerate(ops):
        if op.is_write:
            writes_to[op.key] = writes_to.get(op.key, 0) | 1 << i

    for i, op in enumerate(ops):
        if not op.is_read:
            continue
        verdict.checked_ops += 1
        # The read returns version op.version.  It is a violation if
        # some write w' to the same key causally precedes the read,
        # while the returned write is itself causally before w'
        # (i.e. the read observed a superseded value).
        returned = history.write_at(op.key, op.version)
        if returned is None and op.version != 0:
            continue                # an orphan version constrains nothing
        others = closed[i] & writes_to.get(op.key, 0)
        if returned is not None:
            r = index_of[returned.op_id]
            if not closed[r] >> r & 1:
                # Off a cycle, the key's version chain puts every other
                # write of the key before the returned one or after it,
                # and only those after it can supersede it.
                others &= ~closed[r]
        while others:
            lowest = others & -others
            others ^= lowest
            j = lowest.bit_length() - 1
            other = ops[j]
            if other.version == op.version:
                continue
            if returned is None:
                verdict.add(
                    f"read of initial {op.key!r} despite causally "
                    f"preceding write v{other.version}",
                    ops=(op, other),
                )
                break
            if closed[j] >> r & 1:
                verdict.add(
                    f"read {op.key!r}=v{op.version} superseded by causally "
                    f"preceding write v{other.version}",
                    ops=(op, other),
                )
                break
    return verdict
