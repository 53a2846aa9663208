"""Fault plans: the declarative schedule a :class:`~repro.chaos.Nemesis` executes.

A plan is a list of :class:`FaultStep`\\ s — ``(at | every, fault,
params)`` — over the fault vocabulary of the tutorial's failure axes:

============  =============================================================
``partition`` split the network (``shape``: ``halves``/``ring``/``bridge``)
``region_partition`` cut one whole region off (``region``: name, or the
              nemesis picks one; needs a region-placed store)
``heal``      remove the partition and every link fault
``crash``     fail-stop a server (``target``: ``coordinator``/``random``/id)
``recover``   restart crashed servers (``target``: ``all``/``random``/id)
``clock_skew``offset one server's physical clock (``max_ms`` or
              ``offset_ms`` + ``target``)
``slow_link`` add ``extra_delay`` ms to one server↔server link
``drop``      drop ``rate`` of one server↔server link's messages
``scale_out`` add a shard to an elastic store (live ring move)
``scale_in``  decommission a shard from an elastic store
============  =============================================================

The ``scale_*`` faults target stores whose capabilities declare
``elastic``; against a fixed-topology store they are annotated no-ops,
so mixed plans stay portable across the registry.

Times are milliseconds **relative to nemesis install**.  Steps carry
no randomness themselves — target/side selection happens inside the
nemesis from its own seeded RNG, so the same ``(plan, seed)`` pair
replays the identical fault sequence (the determinism property the
chaos conformance suite fingerprints).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

FAULTS = (
    "partition",
    "region_partition",
    "heal",
    "crash",
    "recover",
    "clock_skew",
    "slow_link",
    "drop",
    "scale_out",
    "scale_in",
)

PARTITION_SHAPES = ("halves", "ring", "bridge")


@dataclass(frozen=True)
class FaultStep:
    """One scheduled fault: fires once (``at``) or periodically
    (``every``, optionally stopping at ``until``)."""

    fault: str
    at: float | None = None
    every: float | None = None
    until: float | None = None
    #: Sorted ``(key, value)`` pairs — kept as a tuple so steps stay
    #: hashable and their canonical form is order-independent.
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.fault not in FAULTS:
            raise ValueError(
                f"unknown fault {self.fault!r}; have {FAULTS}"
            )
        if (self.at is None) == (self.every is None):
            raise ValueError(
                f"step {self.fault!r} needs exactly one of at=/every="
            )
        if self.at is not None and self.at < 0:
            raise ValueError("at= must be non-negative")
        if self.every is not None and self.every <= 0:
            raise ValueError("every= must be positive")
        if self.until is not None and self.every is None:
            raise ValueError("until= only applies to repeating steps")
        shape = self.param("shape")
        if self.fault == "partition" and shape is not None \
                and shape not in PARTITION_SHAPES:
            raise ValueError(
                f"unknown partition shape {shape!r}; have {PARTITION_SHAPES}"
            )

    def param(self, key: str, default: Any = None) -> Any:
        for name, value in self.params:
            if name == key:
                return value
        return default

    def canonical(self) -> str:
        bits = [self.fault]
        if self.at is not None:
            bits.append(f"at={self.at:g}")
        else:
            bits.append(f"every={self.every:g}")
            if self.until is not None:
                bits.append(f"until={self.until:g}")
        bits.extend(f"{k}={v!r}" for k, v in self.params)
        return "(" + " ".join(bits) + ")"


def step(
    fault: str,
    at: float | None = None,
    every: float | None = None,
    until: float | None = None,
    **params: Any,
) -> FaultStep:
    """Ergonomic :class:`FaultStep` constructor used by the named
    plans: ``step("partition", at=40, shape="halves")``."""
    return FaultStep(
        fault, at=at, every=every, until=until,
        params=tuple(sorted(params.items())),
    )


@dataclass(frozen=True)
class FaultPlan:
    """A named, ordered fault schedule."""

    name: str
    steps: tuple[FaultStep, ...]
    #: Default nemesis RNG seed (the nemesis may override).
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.steps, tuple):
            object.__setattr__(self, "steps", tuple(self.steps))

    def canonical(self) -> str:
        """A stable textual form — equal plans stringify identically,
        so plan identity can feed trace fingerprints."""
        inner = " ".join(s.canonical() for s in self.steps)
        return f"plan[{self.name} seed={self.seed} {inner}]"

    @classmethod
    def from_steps(
        cls,
        name: str,
        specs: Iterable[FaultStep | Mapping[str, Any]],
        seed: int = 0,
    ) -> "FaultPlan":
        """Build a plan from steps or plain dicts (the DSL form):
        ``{"at": 40, "fault": "partition", "shape": "halves"}``."""
        steps = []
        for spec in specs:
            if isinstance(spec, FaultStep):
                steps.append(spec)
                continue
            spec = dict(spec)
            fault = spec.pop("fault")
            at = spec.pop("at", None)
            every = spec.pop("every", None)
            until = spec.pop("until", None)
            steps.append(step(fault, at=at, every=every, until=until, **spec))
        return cls(name, tuple(steps), seed=seed)


def random_plan(
    seed: int,
    intensity: float = 0.5,
    horizon: float = 600.0,
) -> FaultPlan:
    """A seeded random plan: ``intensity`` in (0, 1] scales how many
    faults land inside ``horizon`` ms.  Always ends with a heal and a
    recover so histories close cleanly (the runner re-heals anyway)."""
    if not 0 < intensity <= 1:
        raise ValueError("intensity must be in (0, 1]")
    rng = random.Random(seed)
    count = max(1, round(intensity * 8))
    kinds = (
        "partition", "partition", "heal", "crash", "recover",
        "clock_skew", "slow_link", "drop",
    )
    steps = []
    times = sorted(rng.uniform(10.0, horizon * 0.8) for _ in range(count))
    for when in times:
        fault = rng.choice(kinds)
        if fault == "partition":
            steps.append(step("partition", at=when,
                              shape=rng.choice(PARTITION_SHAPES)))
        elif fault == "crash":
            steps.append(step("crash", at=when,
                              target=rng.choice(("coordinator", "random"))))
        elif fault == "recover":
            steps.append(step("recover", at=when, target="all"))
        elif fault == "clock_skew":
            steps.append(step("clock_skew", at=when,
                              max_ms=rng.uniform(10.0, 100.0)))
        elif fault == "slow_link":
            steps.append(step("slow_link", at=when,
                              extra_delay=rng.uniform(10.0, 60.0),
                              duration=rng.uniform(40.0, 120.0)))
        elif fault == "drop":
            steps.append(step("drop", at=when,
                              rate=rng.uniform(0.2, 0.8),
                              duration=rng.uniform(40.0, 120.0)))
        else:
            steps.append(step("heal", at=when))
    steps.append(step("heal", at=horizon * 0.9))
    steps.append(step("recover", at=horizon * 0.9, target="all"))
    return FaultPlan(f"random-{seed}", tuple(steps), seed=seed)


#: The default plan library the CLI and conformance suite reference by
#: name.  Times assume a workload spanning a few hundred simulated ms.
PLANS: dict[str, FaultPlan] = {
    "partitions": FaultPlan("partitions", (
        step("partition", at=40, shape="halves"),
        step("heal", at=140),
        step("partition", at=180, shape="ring"),
        step("heal", at=280),
        step("partition", at=320, shape="bridge"),
        step("heal", at=420),
    )),
    "crashes": FaultPlan("crashes", (
        step("crash", at=50, target="coordinator"),
        step("recover", at=150, target="all"),
        step("crash", at=200, target="random"),
        step("recover", at=300, target="all"),
    )),
    "clock": FaultPlan("clock", (
        step("clock_skew", every=60, until=360, max_ms=50),
    )),
    "links": FaultPlan("links", (
        step("slow_link", at=40, extra_delay=25, duration=90),
        step("drop", at=160, rate=0.5, duration=100),
        step("slow_link", at=290, extra_delay=40, duration=80),
        step("heal", at=400),
    )),
    "rebalance": FaultPlan("rebalance", (
        step("partition", at=40, shape="halves"),
        step("scale_out", at=60),
        step("heal", at=160),
        step("scale_in", at=420),
        step("heal", at=560),
    )),
    "region_loss": FaultPlan("region_loss", (
        step("region_partition", at=40),
        step("heal", at=400),
    )),
    "mixed": FaultPlan("mixed", (
        step("partition", at=40, shape="halves"),
        step("crash", at=80, target="random"),
        step("heal", at=160),
        step("recover", at=200, target="all"),
        step("drop", at=240, rate=0.4, duration=80),
        step("clock_skew", at=300, max_ms=40),
        step("heal", at=400),
    )),
}


def resolve_plan(
    plan: FaultPlan | str | None, seed: int = 0, intensity: float = 0.5,
) -> FaultPlan | None:
    """``plan`` as a :class:`FaultPlan`: a plan object (or None) is
    returned as is, a :data:`PLANS` name is looked up, and ``"random"``
    is :func:`random_plan` for ``seed``."""
    if plan is None or isinstance(plan, FaultPlan):
        return plan
    if plan == "random":
        return random_plan(seed, intensity=intensity)
    if plan not in PLANS:
        raise ValueError(f"unknown plan {plan!r}; available: "
                         f"{', '.join(sorted(PLANS))}, random")
    return PLANS[plan]
