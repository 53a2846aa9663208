"""Shared checker result types.

Checkers never raise on a violation — they return a :class:`Verdict`
listing every violation found, because the experiments *count*
violations (e.g. "stale-read rate under R=W=1").
:meth:`Verdict.raise_if_violated` is for callers that want hard failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..errors import ConsistencyViolation
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

    def violation_rate(self) -> float:
        """Violations per checked operation (0 when nothing checked)."""
        if self.checked_ops == 0:
            return 0.0
        return len(self.violations) / self.checked_ops

    def add(
        self,
        description: str,
        ops: Iterable[Operation] = (),
        guarantee: str | None = None,
    ) -> None:
        self.violations.append(
            Violation(guarantee or self.guarantee, description, tuple(ops))
        )

    def raise_if_violated(self) -> "Verdict":
        if not self.ok:
            first = self.violations[0]
            raise ConsistencyViolation(
                f"{len(self.violations)} violation(s) of {self.guarantee}; "
                f"first: {first}"
            )
        return self

    def __str__(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} violations"
        return f"<{self.guarantee}: {status} over {self.checked_ops} ops>"
