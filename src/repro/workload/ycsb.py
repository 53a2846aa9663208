"""YCSB-style key-value workload mixes.

The standard cloud-serving benchmark shapes, as named presets:

====  =====================  =========================
name  mix                    key distribution
====  =====================  =========================
A     50% read / 50% update  zipfian
B     95% read / 5% update   zipfian
C     100% read              zipfian
D     95% read / 5% insert   latest
F     50% read / 50% RMW     zipfian
====  =====================  =========================

(The original E is a scan workload; scans are out of scope for the
replication experiments, so E is omitted.)

A :class:`YCSBWorkload` yields ``OpSpec`` records; driver helpers turn
them into client operations against any of the repro stores.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from .keyspace import LatestKeys, UniformKeys, ZipfianKeys


@dataclass(frozen=True)
class OpSpec:
    """One generated operation."""

    op: str           # "read" | "update" | "insert" | "rmw"
    key: str
    value: str | None = None


@dataclass(frozen=True)
class MixSpec:
    read: float = 0.0
    update: float = 0.0
    insert: float = 0.0
    rmw: float = 0.0

    def __post_init__(self) -> None:
        total = self.read + self.update + self.insert + self.rmw
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"mix must sum to 1.0 (got {total})")


PRESETS: dict[str, tuple[MixSpec, str]] = {
    "A": (MixSpec(read=0.5, update=0.5), "zipfian"),
    "B": (MixSpec(read=0.95, update=0.05), "zipfian"),
    "C": (MixSpec(read=1.0), "zipfian"),
    "D": (MixSpec(read=0.95, insert=0.05), "latest"),
    "F": (MixSpec(read=0.5, rmw=0.5), "zipfian"),
}


class YCSBWorkload:
    """Deterministic op-stream generator.

    >>> wl = YCSBWorkload("B", records=100, seed=1)
    >>> ops = wl.take(10)
    >>> len(ops)
    10
    >>> all(op.op in ("read", "update") for op in ops)
    True
    """

    def __init__(
        self,
        preset: str = "A",
        records: int = 1000,
        seed: int = 0,
        distribution: str | None = None,
    ) -> None:
        if preset not in PRESETS:
            raise ValueError(
                f"unknown preset {preset!r}; have {sorted(PRESETS)}"
            )
        self.mix, preset_dist = PRESETS[preset]
        distribution = distribution or preset_dist
        self.records = records
        self.rng = random.Random(seed)
        self._value_counter = 0
        if distribution == "uniform":
            self.keys = UniformKeys(records)
        elif distribution == "zipfian":
            self.keys = ZipfianKeys(records)
        elif distribution == "latest":
            self.keys = LatestKeys(records)
        else:
            raise ValueError(f"unknown distribution {distribution!r}")
        self.distribution = distribution
        self._inserted = records

    def _next_value(self) -> str:
        self._value_counter += 1
        return f"v{self._value_counter}"

    def _pick_op(self) -> str:
        roll = self.rng.random()
        if roll < self.mix.read:
            return "read"
        roll -= self.mix.read
        if roll < self.mix.update:
            return "update"
        roll -= self.mix.update
        if roll < self.mix.insert:
            return "insert"
        return "rmw"

    def next_op(self) -> OpSpec:
        op = self._pick_op()
        if op == "insert":
            key_index = self._inserted
            self._inserted += 1
            if isinstance(self.keys, LatestKeys):
                self.keys.advance()
            return OpSpec("insert", f"user{key_index}", self._next_value())
        key = f"user{self.keys.choose(self.rng)}"
        if op == "read":
            return OpSpec("read", key)
        return OpSpec(op, key, self._next_value())

    def take(self, count: int) -> list[OpSpec]:
        return [self.next_op() for _ in range(count)]

    def __iter__(self) -> Iterator[OpSpec]:
        while True:
            yield self.next_op()
