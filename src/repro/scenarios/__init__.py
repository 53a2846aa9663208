"""End-to-end scenario scripts combining several subsystems.

Unlike the benchmarks (one experiment per file) and the conformance
suites (one property per store), a scenario is a *story*: a seeded,
fingerprinted deployment exercised through a full operational arc —
traffic, fault, failover, recovery — with the checkers delivering the
verdicts.  Three so far, each behind one CLI command that prints the
report and (``--check-determinism``) replays it:

* :mod:`~repro.scenarios.storm` — hot-key flash crowd, admission
  control off/on (``repro load --storm``);
* :mod:`~repro.scenarios.scale` — live ring moves under open-loop
  load (``repro scale``);
* :mod:`~repro.scenarios.multiregion` — geo-replication with a region
  loss and failover (``repro multiregion``).
"""

from .multiregion import (
    MultiRegionReport,
    ProtocolOutcome,
    format_multiregion,
    run_multiregion,
)
from .scale import ScaleReport, format_scale, run_scale_demo
from .storm import StormReport, StormRun, format_storm, run_storm

__all__ = [
    "MultiRegionReport",
    "ProtocolOutcome",
    "run_multiregion",
    "format_multiregion",
    "ScaleReport",
    "run_scale_demo",
    "format_scale",
    "StormRun",
    "StormReport",
    "run_storm",
    "format_storm",
]
