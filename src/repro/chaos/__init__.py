"""Deterministic fault injection (nemesis) and chaos conformance.

Seeded fault plans (:class:`FaultPlan`, :data:`PLANS`,
:func:`random_plan`), the :class:`Nemesis` that executes them as
simulation events, and the conformance engine (:func:`run_cell` /
:func:`run_grid`) that drives a stack of layers over a registered
protocol (:func:`build_stack`: ``quorum``, ``sharded:chain``,
``cached[write_through]:sharded:quorum``) through a plan and grades
what its outer layer declares.
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
    build_stack,
    format_reports,
    parse_stack,
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
    "build_stack",
    "parse_stack",
    "CellReport",
    "CheckResult",
    "format_reports",
    "READ_MODES",
    "PASS",
    "FAIL",
    "UNKNOWN",
    "WAIVED",
]
