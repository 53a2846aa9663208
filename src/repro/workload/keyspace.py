"""Key-choice distributions for workload generators.

YCSB's standard menu: uniform, Zipfian (Gray et al.'s generator, the
same one YCSB uses) and latest (Zipfian over recency).  All are driven
by an externally supplied ``random.Random`` so whole workloads replay
from a seed.
"""

from __future__ import annotations

import random

#: Zipfian skew (YCSB's default; higher = more skew).
THETA = 0.99


class UniformKeys:
    """Keys 0..n-1, uniformly."""

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("need at least one key")
        self.n = n

    def choose(self, rng: random.Random) -> int:
        return rng.randrange(self.n)


class ZipfianKeys:
    """Zipfian distribution over 0..n-1 (Gray's rejection method) with
    skew :data:`THETA`.  Item 0 is the most popular.
    """

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("need at least one key")
        self.n, self.zetan = n, self._zeta(n)
        self._grow(n)

    @staticmethod
    def _zeta(n: int) -> float:
        return sum(1.0 / (i ** THETA) for i in range(1, n + 1))

    zeta2 = _zeta(2)                # the same for every keyspace
    alpha = 1.0 / (1.0 - THETA)

    def _grow(self, n: int) -> None:
        """Widen to 0..n-1: zeta gains the new terms as a running sum
        (YCSB's incremental zeta), not a re-sum over all n keys."""
        zetan = self.zetan
        for i in range(self.n + 1, n + 1):
            zetan += 1.0 / (i ** THETA)
        self.n, self.zetan = n, zetan
        if n > 2:   # below that `choose` returns before it reads eta
            self.eta = (1 - (2.0 / n) ** (1 - THETA)) / (1 - self.zeta2 / zetan)

    def choose(self, rng: random.Random) -> int:
        u = rng.random()
        uz = u * self.zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** THETA:
            return 1
        return int(self.n * (self.eta * u - self.eta + 1) ** self.alpha)


class LatestKeys(ZipfianKeys):
    """Skewed toward recently inserted keys (YCSB 'latest'): Zipfian over
    recency, so the newest key, n-1, is the most popular.  Callers
    :meth:`advance` it as the keyspace grows.
    """

    def advance(self) -> None:
        """One more key was inserted."""
        self._grow(self.n + 1)

    def choose(self, rng: random.Random) -> int:
        return self.n - 1 - super().choose(rng)
