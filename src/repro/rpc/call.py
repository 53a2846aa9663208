"""The engine executing one logical RPC under a :class:`RetryPolicy`.

An :class:`RpcCall` drives a small state machine over a client's
one-shot request primitive:

* sequential attempts with exponential, jittered backoff, rotating
  across a failover-ordered endpoint list;
* an optional speculative *hedge* launched after ``hedge_after`` ms of
  silence — first response wins, the loser is abandoned (its eventual
  reply is traced as a ``hedge_cancel`` drop);
* one overall deadline bounding attempts *and* backoff waits.

The engine publishes ``rpc.*`` counters through the simulator's
metrics registry and ``rpc_*`` annotations through its tracer, so
retries, failovers and hedge wins are visible in the same places the
protocols already report to.
"""

from __future__ import annotations

from typing import Any, Hashable, Sequence

from ..errors import TimeoutError as ReproTimeoutError
from ..sim import Future
from .policy import RetryPolicy

#: Counter names published under the ``rpc.`` prefix.
RPC_COUNTERS = (
    "calls",
    "attempts",
    "retries",
    "failovers",
    "hedges",
    "hedge_wins",
    "deadline_exceeded",
    "dedup_hits",
    "throttled",
)


def rpc_counters(metrics) -> dict:
    """The shared ``rpc.*`` counters of a registry, built once per registry."""
    return metrics.counter_group("rpc", RPC_COUNTERS)


class RpcCall:
    """One logical call: retries + hedges over failover endpoints.

    Built by :meth:`repro.replication.common.ClientNode.call`; the
    interesting state is exposed for tests (``attempts``, ``hedges``,
    ``future``).
    """

    __slots__ = (
        "client", "sim", "endpoints", "payload", "policy",
        "idempotency_key", "deadline_at", "future", "attempts", "hedges",
        "_pending", "_cursor", "_retry_timer", "_hedge_timer", "_metrics",
    )

    def __init__(
        self,
        client,
        endpoints: Sequence[Hashable],
        payload: Any,
        policy: RetryPolicy,
        timeout: float | None = None,
        idempotency_key: Hashable | None = None,
    ) -> None:
        self.client = client
        self.sim = client.sim
        self.endpoints = list(endpoints)
        if not self.endpoints:
            raise ValueError("call needs at least one endpoint")
        self.payload = payload
        self.policy = policy
        self.idempotency_key = idempotency_key
        deadline = policy.deadline if policy.deadline is not None else timeout
        self.deadline_at = None if deadline is None else self.sim.now + deadline
        self.future = Future(self.sim, label=("rpc({})", type(payload).__name__))
        self.attempts = 0           # sequential attempts launched
        self.hedges = 0             # speculative duplicates launched
        self._pending: dict[int, Hashable] = {}   # request_id -> endpoint
        self._cursor = 0            # next failover endpoint index
        self._hedge_timer = None
        self._retry_timer = None
        self._metrics = client._rpc_counters
        self._metrics["calls"].inc()
        self._launch(hedge=False)

    # ------------------------------------------------------------------
    # Launching attempts
    # ------------------------------------------------------------------
    def _next_endpoint(self) -> Hashable:
        if not self.policy.failover or len(self.endpoints) == 1:
            return self.endpoints[0]
        endpoint = self.endpoints[self._cursor % len(self.endpoints)]
        self._cursor += 1
        return endpoint

    def _launch(self, hedge: bool) -> None:
        timeout = self.policy.request_timeout
        if self.deadline_at is not None:
            remaining = self.deadline_at - self.sim.now
            if remaining <= 0:
                self._deadline_exceeded()
                return
            timeout = remaining if timeout is None else min(timeout, remaining)
        endpoint = self._next_endpoint()
        locality = getattr(self.client, "locality", None)
        local = locality.is_local(endpoint) if locality is not None else None
        if hedge:
            self.hedges += 1
            self._metrics["hedges"].inc()
            self.sim.annotate(
                "rpc_hedge", client=self.client.node_id, endpoint=endpoint,
                payload=type(self.payload).__name__,
            )
        else:
            self.attempts += 1
            if self.attempts > 1 and endpoint != self.endpoints[0]:
                self._metrics["failovers"].inc()
                if local is False:
                    self.sim.metrics.counter(
                        "rpc.cross_region_failovers"
                    ).inc()
                self.sim.annotate(
                    "rpc_failover", client=self.client.node_id,
                    endpoint=endpoint,
                    payload=type(self.payload).__name__,
                )
        self._metrics["attempts"].inc()
        request_id, inner = self.client._issue(
            endpoint, self.payload, timeout=timeout,
            idempotency_key=self.idempotency_key,
        )
        self._pending[request_id] = endpoint
        inner.add_callback(
            lambda f, rid=request_id, h=hedge: self._attempt_done(rid, h, f)
        )
        if (
            not hedge
            and self.policy.hedge_after is not None
            and self.hedges < self.policy.max_hedges
        ):
            self._hedge_timer = self.client.set_deadline(
                self.policy.hedge_after, self._fire_hedge
            )

    def _fire_hedge(self) -> None:
        self._hedge_timer = None
        if self.future.done or not self._pending:
            return
        if self.hedges >= self.policy.max_hedges:
            return
        self._launch(hedge=True)

    def _retry(self) -> None:
        self._retry_timer = None
        if self.future.done:
            return
        self._launch(hedge=False)

    # ------------------------------------------------------------------
    # Attempt outcomes
    # ------------------------------------------------------------------
    def _attempt_done(self, request_id: int, hedge: bool, inner: Future) -> None:
        self._pending.pop(request_id, None)
        if self.future.done:
            return
        if inner.error is None:
            self._succeed(hedge, inner.value)
            return
        if self._pending:
            # A concurrent (hedged) attempt is still in flight — let it
            # decide the call's fate before retrying or failing.
            return
        if not self.policy.retryable(inner.error):
            self._finish(error=inner.error)
            return
        if self.attempts >= self.policy.max_attempts:
            self._finish(error=inner.error)
            return
        delay = self.policy.backoff(self.attempts - 1, self.sim.rng)
        hint = getattr(inner.error, "retry_after", None)
        if hint is not None and hint > delay:
            # Back-pressure: the server told us when capacity frees up;
            # retrying sooner would only be shed again.
            delay = hint
            self._metrics["throttled"].inc()
        if (
            self.deadline_at is not None
            and self.sim.now + delay >= self.deadline_at
        ):
            self._deadline_exceeded()
            return
        self._metrics["retries"].inc()
        self.sim.annotate(
            "rpc_retry", client=self.client.node_id,
            attempt=self.attempts, delay=round(delay, 3),
            error=type(inner.error).__name__,
            payload=type(self.payload).__name__,
        )
        self._retry_timer = self.client.set_timer(delay, self._retry)

    def _succeed(self, hedge: bool, value: Any) -> None:
        self._cancel_timers()
        for request_id, endpoint in list(self._pending.items()):
            self.client._abandon(request_id, endpoint, reason="hedge_cancel")
        self._pending.clear()
        if hedge:
            self._metrics["hedge_wins"].inc()
            self.sim.annotate(
                "rpc_hedge_win", client=self.client.node_id,
                payload=type(self.payload).__name__,
            )
        self.future.resolve(value)

    def _finish(self, error: BaseException) -> None:
        self._cancel_timers()
        self.future.fail(error)

    def _deadline_exceeded(self) -> None:
        self._cancel_timers()
        self._metrics["deadline_exceeded"].inc()
        self.sim.annotate(
            "rpc_deadline_exceeded", client=self.client.node_id,
            attempts=self.attempts, payload=type(self.payload).__name__,
        )
        self.future.fail(ReproTimeoutError(
            f"rpc deadline exceeded after {self.attempts} attempt(s)"
        ))

    def _cancel_timers(self) -> None:
        if self._hedge_timer is not None:
            self._hedge_timer.cancel()
            self._hedge_timer = None
        if self._retry_timer is not None:
            self._retry_timer.cancel()
            self._retry_timer = None
