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
    seen: set[tuple] = set()
    budget = [max_states]

    def dfs(positions: tuple[int, ...], versions: tuple[int, ...]) -> bool:
        if all(
            position == len(session)
            for position, session in zip(positions, sessions)
        ):
            return True
        state = (positions, versions)
        if state in seen or budget[0] <= 0:
            return False
        budget[0] -= 1
        seen.add(state)
        for index, session in enumerate(sessions):
            position = positions[index]
            if position == len(session):
                continue
            op: Operation = session[position]
            next_positions = (
                positions[:index] + (position + 1,) + positions[index + 1:]
            )
            at = slot[op.key]
            if op.is_read:
                if versions[at] == op.version:
                    if dfs(next_positions, versions):
                        return True
            else:
                written = versions[:at] + (op.version,) + versions[at + 1:]
                if dfs(next_positions, written):
                    return True
        return False

    ok = dfs((0,) * len(sessions), (0,) * len(slot))
    if not ok:
        if budget[0] <= 0:
            verdict.add(
                f"undecided — state budget exhausted ({max_states} states)"
            )
        else:
            verdict.add("no sequentially consistent total order exists")
    return verdict
