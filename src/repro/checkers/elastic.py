"""Durability across topology changes: no acknowledged write lost.

The membership-churn anomaly the elastic chaos suite hunts for is a
*lost write*: a write the store acknowledged before (or during) a ring
move whose value is gone after the move commits and the store settles.
Version-rank comparisons do not survive a key changing clusters — the
donor's and recipient's token spaces are disjoint — so this checker
works from real time and values instead:

* for each key, the **last acknowledged write** is the completed write
  with the greatest end time in the client-observed history;
* the post-settle read-back of that key must return that value, the
  value of a *concurrent-or-later* acknowledged write (LWW arbitration
  between overlapping writes is the store's call), or the value of a
  **maybe-applied** write — a timed-out write the recorder kept,
  because its ack was lost but its effect may stand;
* a key with acknowledged writes that reads back *empty* is always a
  violation — eventual consistency never un-writes a key.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, Mapping

from ..histories import History, Operation
from .base import Verdict

#: Sentinel for "key absent on read-back" (distinct from value None).
MISSING = object()


def read_back(
    store: Any,
    keys: Iterable[Hashable],
    timeout: float = 400.0,
) -> dict:
    """Read every key through one fresh session (``"verify"``), in the
    store's default read mode, and run the simulator until the reads
    settle.  Returns ``key -> value`` with :data:`MISSING` for keys
    that failed or returned nothing."""
    sim = store.sim
    session = store.session("verify")
    results: dict = {}
    for key in sorted(set(keys), key=repr):
        future = session.get(key, timeout=timeout)

        def done(f, k=key):
            if f.error is not None:
                results[k] = MISSING
            else:
                value, token = f.value
                results[k] = MISSING if value is None and token is None \
                    else value

        future.add_callback(done)
    sim.run()
    return results


def check_no_lost_writes(history: History, final: Mapping) -> Verdict:
    """Every key's settled value is explainable by the write history
    (see module docstring for the allowed set)."""
    verdict = Verdict("durability")
    writes: dict[Hashable, list[Operation]] = {}
    for op in history:
        if op.is_write:
            writes.setdefault(op.key, []).append(op)
    for key in sorted(writes, key=repr):
        acked = [op for op in writes[key] if op.completed]
        if not acked:
            continue
        verdict.checked_ops += 1
        last = max(acked, key=lambda op: (op.end, op.start, op.op_id))
        value = final.get(key, MISSING)
        if value is MISSING:
            verdict.add(
                f"key {key!r}: last acknowledged write of {last.value!r} "
                f"(acked at t={last.end:.2f}) read back empty",
                ops=(last,),
            )
            continue
        allowed = {op.value for op in acked if op.end >= last.start}
        allowed.update(
            op.value for op in writes[key] if not op.completed
        )
        if value not in allowed:
            verdict.add(
                f"key {key!r}: settled value {value!r} matches no "
                f"acknowledged-or-maybe-applied write at/after the last "
                f"ack ({last.value!r} at t={last.end:.2f})",
                ops=(last,),
            )
    return verdict
