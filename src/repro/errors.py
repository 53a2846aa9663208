"""Exception hierarchy for the repro library.

Every exception raised by this package derives from :class:`ReproError`
so callers can catch library failures with a single ``except`` clause
while still distinguishing simulator misuse from protocol-level outcomes
(timeouts, unavailability, invariant violations).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SimulationError(ReproError):
    """The simulator was driven into an invalid state (e.g. scheduling
    an event in the past, or running a stopped simulator)."""


class NetworkError(ReproError):
    """Invalid use of the simulated network (unknown node, bad group)."""


class UnavailableError(ReproError):
    """An operation could not complete because too few replicas were
    reachable — the 'A' a system gives up under partition (CAP)."""


class TimeoutError(ReproError):  # noqa: A001 - deliberate domain name
    """An operation did not complete within its deadline."""


class OverloadedError(UnavailableError):
    """A server shed the request at admission (bounded service queue
    full, or token-bucket throttle) instead of queueing it.

    Carries an advisory ``retry_after`` hint in milliseconds — the
    server's estimate of when capacity frees up.  The RPC retry layer
    treats the hint as a back-pressure signal: the request is
    retryable (it was never executed), but not before ``retry_after``
    elapses.
    """

    def __init__(self, message: str = "overloaded",
                 retry_after: float | None = None) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class QuorumError(UnavailableError):
    """A read or write quorum could not be assembled."""


class InvariantViolation(ReproError):
    """An application invariant (e.g. non-negative balance) would be
    violated by the requested operation."""


class NotLeaderError(ReproError):
    """A request requiring the leader/master was sent to a non-leader."""
