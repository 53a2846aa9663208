"""Retry policies: the declarative half of the RPC layer.

A :class:`RetryPolicy` says *when* a call may be re-issued — how many
sequential attempts, how long each may run, how retries back off
(every call rotates its retries across its failover endpoints), and
whether a speculative hedge is launched while the first attempt is still
pending.  The call's ``timeout`` bounds the whole call.  The engine
that executes a policy lives in :mod:`repro.rpc.call`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..errors import TimeoutError as ReproTimeoutError
from ..errors import UnavailableError

#: Errors a retry can plausibly fix: the request (or its reply) was
#: lost in transit, or the serving node could not assemble enough
#: replicas.  Semantic failures (``NotLeaderError`` at a fixed
#: endpoint, validation errors) fail fast.
DEFAULT_RETRYABLE: tuple[type, ...] = (ReproTimeoutError, UnavailableError)


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """How one logical RPC may be re-issued.

    Parameters
    ----------
    max_attempts:
        Sequential attempt budget (1 = no retries).  A hedge is a
        speculative duplicate and does not count against it.
    request_timeout:
        Per-attempt timeout in ms (clipped to the remaining deadline:
        the ``timeout`` argument of :meth:`ClientNode.call` bounds the
        whole call, across all attempts and backoff waits).
    backoff_base / backoff_max:
        Retry ``i`` (0-based) waits ``min(backoff_max,
        backoff_base * 2**i)`` ms before re-issuing.
    jitter:
        Multiplies each backoff by ``1 + jitter * rng.random()`` using
        the *simulator's* seeded RNG — randomized spacing that is still
        a deterministic function of the sim seed.
    hedge_after:
        When set, launch a speculative duplicate attempt after this
        many ms without a response (pick it near the expected p9x
        latency).  At most one hedge per call.  First response wins;
        the loser is abandoned and shows up in traces as a
        ``hedge_cancel`` drop.

    Only :data:`DEFAULT_RETRYABLE` errors are retried.
    """

    max_attempts: int = 3
    request_timeout: float | None = 200.0
    backoff_base: float = 10.0
    backoff_max: float = 2_000.0
    jitter: float = 0.5
    hedge_after: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.request_timeout is not None and self.request_timeout <= 0:
            raise ValueError("request_timeout must be positive")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be non-negative")
        if self.backoff_max < 0:
            raise ValueError("backoff_max must be non-negative")
        if self.jitter < 0:
            raise ValueError("jitter must be non-negative")
        if self.hedge_after is not None and self.hedge_after < 0:
            raise ValueError("hedge_after must be non-negative")

    def backoff(self, retry_index: int, rng: random.Random) -> float:
        """Delay in ms before retry ``retry_index`` (0-based)."""
        delay = min(
            self.backoff_max,
            self.backoff_base * 2.0 ** retry_index,
        )
        if self.jitter > 0:
            delay *= 1.0 + self.jitter * rng.random()
        return delay

    def retryable(self, error: BaseException) -> bool:
        return isinstance(error, DEFAULT_RETRYABLE)
