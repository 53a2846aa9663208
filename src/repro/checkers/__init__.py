"""Consistency checkers: predicates over recorded histories.

One checker per rung of the tutorial's consistency ladder —
linearizability, sequential, causal, the four session guarantees,
bounded staleness, and eventual convergence — so every experiment's
consistency claims are machine-verified.
"""

from .base import Verdict, Violation
from .causal import check_causal
from .convergence import check_convergence
from .elastic import MISSING, check_no_lost_writes, read_back
from .linearizability import check_linearizability
from .sequential import check_sequential
from .session import (
    ALL_SESSION_GUARANTEES,
    check_all_session_guarantees,
    check_monotonic_reads,
    check_monotonic_writes,
    check_read_your_writes,
    check_writes_follow_reads,
)
from .staleness import (
    ReadStaleness,
    TierStaleness,
    check_bounded_staleness,
    measure_staleness,
    stale_read_fraction,
    staleness_by_tier,
)

__all__ = [
    "Verdict",
    "Violation",
    "check_linearizability",
    "check_sequential",
    "check_causal",
    "check_read_your_writes",
    "check_monotonic_reads",
    "check_monotonic_writes",
    "check_writes_follow_reads",
    "check_all_session_guarantees",
    "ALL_SESSION_GUARANTEES",
    "check_convergence",
    "check_no_lost_writes",
    "read_back",
    "MISSING",
    "measure_staleness",
    "ReadStaleness",
    "TierStaleness",
    "check_bounded_staleness",
    "stale_read_fraction",
    "staleness_by_tier",
]
