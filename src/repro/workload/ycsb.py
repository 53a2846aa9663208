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
from itertools import islice
from typing import Iterator, NamedTuple

from .keyspace import LatestKeys, UniformKeys, ZipfianKeys


class OpSpec(NamedTuple):
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
        if distribution == "uniform":
            self.keys = UniformKeys(records)
        elif distribution == "zipfian":
            self.keys = ZipfianKeys(records)
        elif distribution == "latest":
            self.keys = LatestKeys(records)
        else:
            raise ValueError(f"unknown distribution {distribution!r}")
        self.distribution = distribution
        self._stream = self._ops(self.rng, self.keys, self.mix, records)

    @staticmethod
    def _ops(rng: random.Random, keys: UniformKeys | ZipfianKeys,
             mix: MixSpec, inserted: int) -> Iterator[OpSpec]:
        """The op stream, state in locals (none on the workload: no cycle).
        Each op draws its roll, then its key; seeded streams rely on it."""
        roll_dice, choose, new = rng.random, keys.choose, tuple.__new__
        advance = keys.advance if isinstance(keys, LatestKeys) else None
        read, update, insert = mix.read, mix.update, mix.insert
        values = 0
        while True:
            roll = roll_dice()
            if roll < read:
                yield new(OpSpec, ("read", f"user{choose(rng)}", None))
                continue
            roll -= read
            values += 1
            if roll < update:
                yield new(OpSpec, ("update", f"user{choose(rng)}", f"v{values}"))
            elif roll - update < insert:
                if advance is not None:
                    advance()
                inserted += 1
                yield new(OpSpec, ("insert", f"user{inserted - 1}", f"v{values}"))
            else:
                yield new(OpSpec, ("rmw", f"user{choose(rng)}", f"v{values}"))

    def next_op(self) -> OpSpec:
        """The next op: the one per-op entry ``take`` and iteration share."""
        return next(self._stream)

    def take(self, count: int) -> list[OpSpec]:
        return list(islice(iter(self.next_op, None), count))

    def __iter__(self) -> Iterator[OpSpec]:
        return iter(self.next_op, None)
