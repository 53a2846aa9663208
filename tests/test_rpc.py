"""Tests for the resilient RPC layer (repro.rpc + ClientNode.call)."""

import pytest

from repro.errors import NotLeaderError, TimeoutError as ReproTimeoutError
from repro.replication.common import ClientNode, ServerNode
from repro.rpc import DEFAULT_RETRYABLE, RetryPolicy
from repro.sim import FixedLatency, Future, Network, Simulator, Tracer
from repro.sim.trace import filter_events


class EchoServer(ServerNode):
    """Upper-cases strings; floats raise a non-retryable error."""

    reply_delay = 0.0    # extra ms before the str reply resolves
    slow_first = False   # apply reply_delay only to the first execution
    applied = 0          # how many times serve_str actually executed

    def serve_str(self, src, payload):
        self.applied += 1
        delay = self.reply_delay
        if self.slow_first and self.applied > 1:
            delay = 0.0
        if delay <= 0:
            return payload.upper()
        future = Future(self.sim)
        self.set_timer(delay, future.resolve, payload.upper())
        return future

    def serve_float(self, src, payload):
        raise NotLeaderError("floats go elsewhere")


def setup(seed=1, traced=False, servers=1):
    tracer = Tracer() if traced else None
    sim = Simulator(seed=seed, tracer=tracer)
    net = Network(sim, latency=FixedLatency(1.0))
    nodes = [EchoServer(sim, net, f"s{i}") for i in range(servers)]
    client = ClientNode(sim, net, "client")
    return sim, net, nodes, client


def counter(sim, name):
    return sim.metrics.counter(f"rpc.{name}").value


# ----------------------------------------------------------------------
# RetryPolicy: validation + backoff
# ----------------------------------------------------------------------

def test_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(request_timeout=0.0)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=-0.1)
    with pytest.raises(ValueError):
        RetryPolicy(hedge_after=-5.0)


def test_backoff_growth_and_cap():
    policy = RetryPolicy(backoff_base=10.0, backoff_max=35.0, jitter=0.0)
    sim = Simulator(seed=1)
    assert policy.backoff(0, sim.rng) == 10.0
    assert policy.backoff(1, sim.rng) == 20.0
    assert policy.backoff(2, sim.rng) == 35.0  # capped


def test_backoff_jitter_is_seeded_and_bounded():
    policy = RetryPolicy(backoff_base=10.0, jitter=0.5)
    a = [policy.backoff(0, Simulator(seed=7).rng) for _ in range(3)]
    b = [policy.backoff(0, Simulator(seed=7).rng) for _ in range(3)]
    assert a == b  # deterministic in the sim seed
    assert all(10.0 <= d <= 15.0 for d in a)


def test_default_retryable_excludes_not_leader():
    policy = RetryPolicy()
    assert policy.retryable(ReproTimeoutError("t"))
    assert not policy.retryable(NotLeaderError("n"))
    assert NotLeaderError not in DEFAULT_RETRYABLE


# ----------------------------------------------------------------------
# call(): plain, retry, failover
# ----------------------------------------------------------------------

def test_call_without_policy_is_plain_request():
    sim, _net, _nodes, client = setup()
    future = client.call("s0", "hello")
    sim.run()
    assert future.value == "HELLO"
    assert counter(sim, "calls") == 0  # no policy -> no RPC engine


def test_retry_then_success_after_recovery():
    sim, _net, (server,), client = setup()
    policy = RetryPolicy(max_attempts=3, request_timeout=10.0,
                         backoff_base=5.0, jitter=0.0)
    server.crash()
    sim.schedule(12.0, server.recover)
    future = client.call("s0", "hello", timeout=200.0, policy=policy)
    sim.run()
    # attempt 1 times out at 10; the retry fires at 15 and lands.
    assert future.value == "HELLO"
    assert sim.now == 17.0
    assert counter(sim, "attempts") == 2
    assert counter(sim, "retries") == 1
    assert counter(sim, "failovers") == 0  # single endpoint


def test_failover_to_second_endpoint():
    sim, _net, (s0, _s1), client = setup(traced=True, servers=2)
    policy = RetryPolicy(max_attempts=2, request_timeout=10.0,
                         backoff_base=5.0, jitter=0.0, failover=True)
    s0.crash()
    future = client.call(["s0", "s1"], "hello", timeout=200.0, policy=policy)
    sim.run()
    assert future.value == "HELLO"
    assert counter(sim, "failovers") == 1
    annotations = filter_events(sim.trace.events, kind="annotation", category="rpc_failover")
    assert len(annotations) == 1
    assert annotations[0].data["endpoint"] == "s1"


def test_no_failover_when_disabled():
    sim, _net, (s0, s1), client = setup(servers=2)
    policy = RetryPolicy(max_attempts=2, request_timeout=10.0,
                         backoff_base=5.0, jitter=0.0, failover=False)
    s0.crash()
    future = client.call(["s0", "s1"], "hello", timeout=200.0, policy=policy)
    sim.run()
    assert isinstance(future.error, ReproTimeoutError)
    assert s1.applied == 0  # never contacted
    assert counter(sim, "failovers") == 0


def test_client_default_policy_applies():
    sim, _net, (server,), client = setup()
    client.retry = RetryPolicy(max_attempts=3, request_timeout=10.0,
                               backoff_base=5.0, jitter=0.0)
    server.crash()
    sim.schedule(12.0, server.recover)
    future = client.call("s0", "hello", timeout=200.0)
    sim.run()
    assert future.value == "HELLO"
    assert counter(sim, "retries") == 1


def test_non_retryable_fails_fast():
    sim, _net, _nodes, client = setup()
    policy = RetryPolicy(max_attempts=3, request_timeout=50.0)
    future = client.call("s0", 3.14, timeout=500.0, policy=policy)
    sim.run()
    assert isinstance(future.error, NotLeaderError)
    assert counter(sim, "attempts") == 1
    assert counter(sim, "retries") == 0


def test_attempts_exhausted_returns_last_error():
    sim, _net, (server,), client = setup()
    policy = RetryPolicy(max_attempts=2, request_timeout=10.0,
                         backoff_base=5.0, jitter=0.0)
    server.crash()
    future = client.call("s0", "hello", timeout=500.0, policy=policy)
    sim.run()
    assert isinstance(future.error, ReproTimeoutError)
    assert counter(sim, "attempts") == 2
    assert counter(sim, "deadline_exceeded") == 0


# ----------------------------------------------------------------------
# Deadline
# ----------------------------------------------------------------------

def test_deadline_bounds_retries():
    sim, _net, (server,), client = setup()
    policy = RetryPolicy(max_attempts=10, request_timeout=10.0,
                         backoff_base=5.0, jitter=0.0)
    server.crash()
    future = client.call("s0", "hello", timeout=25.0, policy=policy)
    sim.run()
    assert isinstance(future.error, ReproTimeoutError)
    assert "deadline" in str(future.error)
    assert sim.now == 25.0
    assert counter(sim, "attempts") == 2
    assert counter(sim, "deadline_exceeded") == 1


# ----------------------------------------------------------------------
# Hedging
# ----------------------------------------------------------------------

def test_hedge_win_cancels_slow_attempt():
    sim, _net, (s0, s1), client = setup(traced=True, servers=2)
    s0.reply_delay = 100.0
    policy = RetryPolicy(max_attempts=2, request_timeout=500.0,
                         hedge_after=10.0, jitter=0.0)
    future = client.call(["s0", "s1"], "hello", timeout=1_000.0,
                         policy=policy)
    sim.run()
    assert future.value == "HELLO"
    assert counter(sim, "hedges") == 1
    assert counter(sim, "hedge_wins") == 1
    # The losing attempt is traced as a hedge_cancel drop on its Reply…
    drops = filter_events(sim.trace.events, kind="msg_drop", reason="hedge_cancel")
    assert len(drops) == 1
    assert drops[0].data["src"] == "s0"
    # …and the summary counts it under its own reason, not "loss".
    summary = sim.trace.message_summary()
    assert summary["Reply"]["drop_reasons"].get("hedge_cancel") == 1
    assert "loss" not in summary["Reply"]["drop_reasons"]


def test_hedge_not_fired_when_reply_is_fast():
    sim, _net, _nodes, client = setup(servers=2)
    policy = RetryPolicy(max_attempts=2, request_timeout=500.0,
                         hedge_after=50.0, jitter=0.0)
    future = client.call(["s0", "s1"], "hello", timeout=1_000.0,
                         policy=policy)
    sim.run()
    assert future.value == "HELLO"
    assert counter(sim, "hedges") == 0
    assert sim.now == 2.0  # the armed hedge timer was cancelled


def test_hedge_loss_does_not_fail_call():
    # The hedge goes to a crashed endpoint; the original still wins.
    sim, _net, (s0, s1), client = setup(servers=2)
    s0.reply_delay = 30.0
    s1.crash()
    policy = RetryPolicy(max_attempts=2, request_timeout=500.0,
                         hedge_after=10.0, jitter=0.0)
    future = client.call(["s0", "s1"], "hello", timeout=1_000.0,
                         policy=policy)
    sim.run()
    assert future.value == "HELLO"
    assert counter(sim, "hedges") == 1
    assert counter(sim, "hedge_wins") == 0


# ----------------------------------------------------------------------
# Idempotency: server-side dedup
# ----------------------------------------------------------------------

def test_idempotent_retry_applies_once():
    sim, _net, (server,), client = setup()
    server.reply_delay = 30.0  # first execution outlives the timeouts
    policy = RetryPolicy(max_attempts=3, request_timeout=10.0,
                         backoff_base=5.0, jitter=0.0)
    future = client.call("s0", "hello", timeout=500.0, policy=policy,
                         idempotent=True)
    sim.run()
    # Attempt 1 executes (reply too late); attempt 2 attaches to the
    # running op; attempt 3 replays the cached result.
    assert future.value == "HELLO"
    assert server.applied == 1
    assert counter(sim, "dedup_hits") == 2
    assert counter(sim, "attempts") == 3


def test_non_idempotent_retry_reapplies():
    sim, _net, (server,), client = setup()
    server.reply_delay = 30.0
    server.slow_first = True  # the retry's re-execution replies fast
    policy = RetryPolicy(max_attempts=3, request_timeout=10.0,
                         backoff_base=5.0, jitter=0.0)
    future = client.call("s0", "hello", timeout=500.0, policy=policy)
    sim.run()
    assert future.value == "HELLO"
    assert server.applied == 2  # no key -> the retry re-executed
    assert counter(sim, "dedup_hits") == 0


def test_dedup_pending_entry_dies_with_crash():
    sim, _net, (server,), client = setup()
    server.reply_delay = 30.0
    policy = RetryPolicy(max_attempts=4, request_timeout=10.0,
                         backoff_base=20.0, jitter=0.0)
    # Crash mid-execution (op started ~1ms in, completes at ~31ms),
    # recover before the retry arrives.
    sim.schedule(5.0, server.crash)
    sim.schedule(8.0, server.recover)
    future = client.call("s0", "hello", timeout=500.0, policy=policy,
                         idempotent=True)
    sim.run()
    assert future.value == "HELLO"
    # The in-flight application died with the node, so the retry after
    # recovery re-executed it from scratch (2 applications); only the
    # final attempt replayed from the rebuilt dedup table.
    assert server.applied == 2
    assert counter(sim, "dedup_hits") == 1


def test_dedup_done_entry_survives_crash():
    sim, _net, (server,), client = setup()
    policy = RetryPolicy(max_attempts=3, request_timeout=10.0,
                         backoff_base=5.0, jitter=0.0)
    # The op applies and completes at ~2ms, but the client never sees
    # the first reply: crash the *client's* view by crashing the server
    # after completion and dropping its reply is fiddly — instead rely
    # on dedup directly: apply once, then replay from the table.
    future1 = client.call("s0", "hello", timeout=500.0, policy=policy,
                          idempotent=True)
    sim.run()
    assert future1.value == "HELLO"
    key = next(iter(server._dedup))
    server.crash()
    server.recover()
    assert key in server._dedup  # persisted dedup table
    assert server._dedup[key].done


def test_dedup_table_capacity_evicts_done_entries():
    sim, _net, (server,), client = setup()
    server.dedup_capacity = 2
    policy = RetryPolicy(max_attempts=1, request_timeout=50.0)
    for i in range(4):
        client.call("s0", f"v{i}", timeout=500.0, policy=policy,
                    idempotent=True)
        sim.run()
    assert len(server._dedup) <= 2


# ----------------------------------------------------------------------
# Satellite fixes: timer churn + _busy_until reset
# ----------------------------------------------------------------------

def test_reply_retires_timeout_timer():
    # The run must end when the reply lands (2ms), not when an
    # orphaned timeout timer would have fired (100ms).
    sim, _net, _nodes, client = setup()
    future = client.call("s0", "hello", timeout=100.0)
    sim.run()
    assert future.value == "HELLO"
    assert sim.now == 2.0


def test_busy_until_resets_across_crash_recover():
    sim, _net, (server,), client = setup()
    server.service_time = 50.0
    # Request 1 is queued (would dispatch at ~51), but the node
    # crashes at 5 and recovers at 10 with an empty queue.
    future1 = client.call("s0", "one", timeout=20.0)
    sim.schedule(5.0, server.crash)
    sim.schedule(10.0, server.recover)
    sim.schedule(12.0, lambda: results.append(
        client.call("s0", "two", timeout=200.0)))
    results = []
    sim.run()
    assert isinstance(future1.error, ReproTimeoutError)
    future2 = results[0]
    # Recovered node starts fresh: arrive 13, serve 50, reply 64 —
    # not delayed behind the pre-crash backlog's _busy_until.
    assert future2.value == "TWO"
    assert sim.now == 64.0
