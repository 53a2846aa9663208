"""Sequential consistency checker.

Sequential consistency drops linearizability's real-time constraint:
there must be *some* single total order of all operations, consistent
with each session's program order, in which every read returns the
latest preceding write.  Unlike linearizability it is **not local** —
keys cannot be checked independently — so the search interleaves whole
sessions and tracks the register state of every key at once.

Exact checking is exponential; the memoized DFS below is fine for the
history sizes the experiments produce (E11 charts the growth).
"""

from __future__ import annotations

from ..histories import History, Operation
from .base import Verdict


def check_sequential(history: History, max_states: int = 2_000_000) -> Verdict:
    """Is there a legal sequentially consistent total order?"""
    verdict = Verdict("sequential-consistency")
    sessions = [history.by_session(s) for s in history.sessions]
    sessions = [ops for ops in sessions if ops]
    verdict.checked_ops = sum(len(ops) for ops in sessions)
    if not sessions:
        return verdict

    # Register state: one version per key, at the key's position in the
    # history's key order, so a write step is one tuple splice.
    slot = {key: index for index, key in enumerate(history.keys)}
    lengths = tuple(len(session) for session in sessions)
    seen: set[tuple] = set()
    budget = max_states
    # Depth-first on an explicit stack: a history of any length takes
    # no recursion.  Children are pushed in reverse, so session 0's next
    # op is tried first.
    stack = [((0,) * len(sessions), (0,) * len(slot))]
    while stack:
        state = stack.pop()
        if state in seen:
            continue
        if budget <= 0:
            verdict.add(
                f"undecided — state budget exhausted ({max_states} states)"
            )
            return verdict
        budget -= 1
        seen.add(state)
        positions, versions = state
        children = []
        for index, session in enumerate(sessions):
            position = positions[index]
            if position == lengths[index]:
                continue
            op: Operation = session[position]
            next_positions = (
                positions[:index] + (position + 1,) + positions[index + 1:]
            )
            at = slot[op.key]
            if op.is_read:
                if versions[at] != op.version:
                    continue
                written = versions
            else:
                written = versions[:at] + (op.version,) + versions[at + 1:]
            if next_positions == lengths:
                return verdict
            children.append((next_positions, written))
        stack.extend(reversed(children))
    verdict.add("no sequentially consistent total order exists")
    return verdict
