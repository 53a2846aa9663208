"""Eventual-consistency (convergence) checking.

The liveness half of eventual consistency: once updates stop and
replicas keep exchanging state, all replicas expose the same data.
:func:`check_convergence` compares replica snapshots (any
``snapshot()``-providing store or a plain dict).
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from .base import Verdict


def _as_snapshot(replica: Any) -> Mapping:
    if isinstance(replica, Mapping):
        return replica
    snapshot = getattr(replica, "snapshot", None)
    if callable(snapshot):
        return snapshot()
    raise TypeError(f"cannot snapshot {type(replica).__name__}")


def check_convergence(replicas: Sequence[Any]) -> Verdict:
    """All replicas expose identical key→value mappings."""
    verdict = Verdict("convergence")
    if not replicas:
        return verdict
    snapshots = [_as_snapshot(replica) for replica in replicas]
    reference = snapshots[0]
    all_keys = set()
    for snapshot in snapshots:
        all_keys |= set(snapshot)
    verdict.checked_ops = len(all_keys) * len(snapshots)
    for index, snapshot in enumerate(snapshots[1:], start=1):
        for key in all_keys:
            left = reference.get(key, _MISSING)
            right = snapshot.get(key, _MISSING)
            if left != right:
                verdict.add(
                    f"replica 0 and replica {index} disagree on {key!r}: "
                    f"{_show(left)} vs {_show(right)}"
                )
    return verdict


class _Missing:
    def __repr__(self) -> str:
        return "<missing>"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Missing)

    def __hash__(self) -> int:  # pragma: no cover
        return 0


_MISSING = _Missing()


def _show(value: Any) -> str:
    return repr(value)
