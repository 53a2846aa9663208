"""Key-choice distributions for workload generators.

YCSB's standard menu: uniform, Zipfian (Gray et al.'s generator, the
same one YCSB uses) and latest (Zipfian over recency).  All are driven
by an externally supplied ``random.Random`` so whole workloads replay
from a seed.
"""

from __future__ import annotations

import random


class UniformKeys:
    """Keys 0..n-1, uniformly."""

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("need at least one key")
        self.n = n

    def choose(self, rng: random.Random) -> int:
        return rng.randrange(self.n)


class ZipfianKeys:
    """Zipfian distribution over 0..n-1 (Gray's rejection method).

    ``theta`` is the skew (YCSB default 0.99; higher = more skew).
    Item 0 is the most popular.
    """

    def __init__(self, n: int, theta: float = 0.99) -> None:
        if n < 1:
            raise ValueError("need at least one key")
        if not 0 < theta < 1:
            raise ValueError("theta must be in (0, 1)")
        self.n = n
        self.theta = theta
        self.zetan = self._zeta(n, theta)
        self.zeta2 = self._zeta(2, theta)
        self.alpha = 1.0 / (1.0 - theta)
        self.eta = (1 - (2.0 / n) ** (1 - theta)) / (1 - self.zeta2 / self.zetan)

    @staticmethod
    def _zeta(n: int, theta: float) -> float:
        return sum(1.0 / (i ** theta) for i in range(1, n + 1))

    def choose(self, rng: random.Random) -> int:
        u = rng.random()
        uz = u * self.zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        return int(self.n * (self.eta * u - self.eta + 1) ** self.alpha)


class LatestKeys:
    """Skewed toward recently inserted keys (YCSB 'latest').

    ``insert_point`` tracks the newest key; callers bump it with
    :meth:`advance` as the keyspace grows.
    """

    def __init__(self, n: int, theta: float = 0.99) -> None:
        self.insert_point = n - 1
        self._zipf = ZipfianKeys(max(n, 1), theta)

    def advance(self, count: int = 1) -> None:
        self.insert_point += count
        if self.insert_point >= self._zipf.n:
            self._zipf = ZipfianKeys(self.insert_point + 1, self._zipf.theta)

    def choose(self, rng: random.Random) -> int:
        offset = self._zipf.choose(rng)
        return max(0, self.insert_point - offset)
