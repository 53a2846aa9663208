"""Shared checker result types.

Checkers never raise on a violation — they return a :class:`Verdict`
listing every violation found, because the experiments *count*
violations (e.g. "stale-read rate under R=W=1").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..histories import Operation


@dataclass(frozen=True)
class Violation:
    """One detected anomaly."""

    guarantee: str                 # e.g. "read-your-writes"
    description: str
    ops: tuple[Operation, ...] = ()

    def __str__(self) -> str:
        return f"[{self.guarantee}] {self.description}"


@dataclass
class Verdict:
    """Outcome of a checker run."""

    guarantee: str
    checked_ops: int = 0
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def violation_count(self) -> int:
        return len(self.violations)

    def add(
        self,
        description: str,
        ops: Iterable[Operation] = (),
    ) -> None:
        self.violations.append(
            Violation(self.guarantee, description, tuple(ops))
        )

    def __str__(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} violations"
        return f"<{self.guarantee}: {status} over {self.checked_ops} ops>"
