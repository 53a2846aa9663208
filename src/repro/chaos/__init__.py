"""Deterministic fault injection (nemesis) and chaos conformance.

Seeded fault plans (:class:`FaultPlan`, :data:`PLANS`,
:func:`random_plan`), the :class:`Nemesis` that executes them as
simulation events, and the conformance engine (:func:`run_cell` /
:func:`run_grid`) that drives a registered store adapter — bare or
behind a cache policy — through a plan and grades its declared
guarantees.
"""

from .nemesis import Nemesis
from .plan import (
    FAULTS,
    PARTITION_SHAPES,
    PLANS,
    FaultPlan,
    FaultStep,
    random_plan,
    resolve_plan,
    step,
)
from .runner import (
    FAIL,
    PASS,
    READ_MODES,
    UNKNOWN,
    WAIVED,
    CellReport,
    CheckResult,
    cacheable_protocols,
    format_reports,
    run_cell,
    run_grid,
)

__all__ = [
    "FAULTS",
    "PARTITION_SHAPES",
    "PLANS",
    "FaultPlan",
    "FaultStep",
    "step",
    "random_plan",
    "resolve_plan",
    "Nemesis",
    "run_cell",
    "run_grid",
    "cacheable_protocols",
    "CellReport",
    "CheckResult",
    "format_reports",
    "READ_MODES",
    "PASS",
    "FAIL",
    "UNKNOWN",
    "WAIVED",
]
