"""Operation histories: the raw material of consistency checking.

A :class:`History` is a set of client-observed operations — key, kind
(read/write), value/version, session, invocation and response times.
The checkers in :mod:`repro.checkers` are predicates over histories;
the workload drivers record one per run, at the client boundary, via
:class:`TokenHistoryRecorder` — so every experiment's consistency
claims are machine-checked rather than asserted.
"""

from .events import History, Operation, make_read, make_write
from .recorder import TokenHistoryRecorder

#: Aliases that read naturally at call sites.
ReadOp = make_read
WriteOp = make_write

__all__ = [
    "Operation",
    "ReadOp",
    "WriteOp",
    "History",
    "TokenHistoryRecorder",
    "make_read",
    "make_write",
]
