"""Request/reply plumbing shared by every replication protocol.

Clients are first-class network nodes (:class:`ClientNode`): a client
operation is a :class:`Request` message to some server node, matched
to a :class:`Reply` by id, with an optional timeout.  This keeps
client-observed latency honest — it includes the client↔server hops
through the same latency/partition model the replicas use — and gives
every protocol the same failure surface (a request into a partitioned
server simply times out).

On top of the one-shot :meth:`ClientNode.request` primitive,
:meth:`ClientNode.call` runs a :class:`repro.rpc.RetryPolicy`:
sequential retries with jittered backoff, failover across an
endpoint list, speculative hedged attempts, and an overall deadline.
Protocol clients route their operations through ``call`` so every
store gets the same resilience surface (and the same ``rpc.*``
metrics) instead of re-inventing failure handling.

Servers implement ``serve_<PayloadClassName>(src, payload) -> result``;
returning a :class:`Future` defers the reply until the protocol round
(quorum, acks, consensus) completes.  Raising inside ``serve_*`` or
failing the future sends an error reply that fails the client future.
Requests carrying an idempotency key are deduplicated server-side so
a retried write is applied at most once per server (the replayed reply
carries the original result).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable

from .. import errors
from ..errors import OverloadedError, ReproError, SimulationError
from ..errors import TimeoutError as ReproTimeoutError
from ..histories import HistoryRecorder
from ..rpc import RetryPolicy, RpcCall, rpc_counters
from ..sim import Future, Network, Node, Simulator
from ..sim.trace import MSG_DROP


@dataclass(slots=True)
class Request:
    request_id: int
    payload: Any
    #: When set, the server applies the payload at most once per key:
    #: a retried request replays the cached reply instead of
    #: re-executing the handler (see :class:`ServerNode`).
    idempotency_key: Hashable | None = None


@dataclass(slots=True)
class Reply:
    request_id: int
    payload: Any = None
    error: str | None = None          # exception class name
    error_message: str = ""
    #: Back-pressure hint (ms) carried by an overload rejection: the
    #: server's estimate of when capacity frees up.  Re-attached to
    #: the rebuilt client-side exception so retry policies can honor it.
    retry_after: float | None = None


def _error_reply(request_id: int, exc: BaseException) -> Reply:
    return Reply(
        request_id,
        error=type(exc).__name__,
        error_message=str(exc),
        retry_after=getattr(exc, "retry_after", None),
    )


def _rebuild_error(reply: Reply) -> ReproError:
    exc_type = getattr(errors, reply.error or "", None)
    if isinstance(exc_type, type) and issubclass(exc_type, BaseException):
        rebuilt = exc_type(reply.error_message)
    else:
        rebuilt = ReproError(f"{reply.error}: {reply.error_message}")
    if reply.retry_after is not None:
        rebuilt.retry_after = reply.retry_after
    return rebuilt


class ClientNode(Node):
    """A network-attached client issuing request/reply operations."""

    def __init__(self, sim: Simulator, network: Network, node_id: Hashable):
        super().__init__(sim, network, node_id)
        self._next_request = 0
        self._next_idem = 0
        # request_id -> (future, timeout deadline or None)
        self._outstanding: dict[int, tuple[Future, Any]] = {}
        #: Default policy applied by :meth:`call` when none is passed
        #: explicitly (set by the store adapters' ``retry=`` option).
        self.retry: RetryPolicy | None = None
        #: Optional :class:`~repro.placement.LocalityMap` set by
        #: region-aware sessions.  When present, :meth:`call` orders
        #: multi-endpoint destinations nearest-region-first and the RPC
        #: engine publishes ``rpc.attempts_local`` / ``attempts_remote``.
        self.locality = None
        self._rpc_counters = rpc_counters(sim.metrics)

    # ------------------------------------------------------------------
    # One-shot primitive
    # ------------------------------------------------------------------
    def request(
        self,
        dst: Hashable,
        payload: Any,
        timeout: float | None = None,
        idempotency_key: Hashable | None = None,
    ) -> Future:
        """Send ``payload`` to ``dst``; the future resolves with the
        reply payload (or fails with the server's error / a timeout)."""
        _request_id, future = self._issue(
            dst, payload, timeout, idempotency_key
        )
        return future

    def _issue(
        self,
        dst: Hashable,
        payload: Any,
        timeout: float | None = None,
        idempotency_key: Hashable | None = None,
    ) -> tuple[int, Future]:
        self._next_request += 1
        request_id = self._next_request
        future = Future(self.sim, label=("req#{}->{}", request_id, dst))
        if self.locality is not None:
            # Locality accounting only exists for region-placed clients;
            # the counters are created lazily, so region-blind scenarios
            # keep their metrics snapshots (and fingerprints) unchanged.
            name = ("attempts_local" if self.locality.is_local(dst)
                    else "attempts_remote")
            self.sim.metrics.counter(f"rpc.{name}").inc()
        self.send(dst, Request(request_id, payload, idempotency_key))
        timer = (
            self.set_deadline(timeout, self._timeout, request_id)
            if timeout is not None else None
        )
        self._outstanding[request_id] = (future, timer)
        return request_id, future

    def _timeout(self, request_id: int) -> None:
        entry = self._outstanding.pop(request_id, None)
        if entry is None:
            return
        future, _timer = entry
        if not future.done:
            future.fail(ReproTimeoutError(f"request #{request_id} timed out"))

    def _abandon(
        self, request_id: int, dst: Hashable, reason: str = "cancelled"
    ) -> None:
        """Stop waiting for a request without failing its future (the
        losing attempt of a hedged call).  The eventual reply, if any,
        is ignored on arrival; the trace records the abandonment as a
        drop so hedging shows up in message summaries."""
        entry = self._outstanding.pop(request_id, None)
        if entry is None:
            return
        _future, timer = entry
        if timer is not None:
            timer.cancel()
        if self.sim.trace.enabled:
            self.sim.trace.message(self.sim.now, MSG_DROP, dst, self.node_id,
                                   Reply.__name__, reason)

    def handle_Reply(self, src: Hashable, msg: Reply) -> None:
        entry = self._outstanding.pop(msg.request_id, None)
        if entry is None:
            return  # late reply after timeout or abandonment
        future, timer = entry
        if timer is not None:
            # The reply settled the request early: retire the timeout
            # timer instead of letting a dead event fire later.
            timer.cancel()
        if future.done:
            return
        if msg.error is not None:
            future.fail(_rebuild_error(msg))
        else:
            future.resolve(msg.payload)

    # ------------------------------------------------------------------
    # Policy-driven calls
    # ------------------------------------------------------------------
    def call(
        self,
        dst: Hashable | list | tuple,
        payload: Any,
        timeout: float | None = None,
        policy: RetryPolicy | None = None,
        idempotent: bool = False,
    ) -> Future:
        """Issue ``payload`` under a retry policy.

        ``dst`` is one endpoint or a failover-ordered list (preferred
        endpoint first).  The effective policy is ``policy`` or
        :attr:`retry`; with neither, this is exactly :meth:`request`
        against the preferred endpoint — one attempt, one optional
        timeout.  Under a policy, ``timeout`` acts as the overall
        deadline when the policy does not set its own.

        ``idempotent=True`` attaches a fresh idempotency key so
        server-side dedup makes retried writes apply at most once per
        server.
        """
        endpoints = list(dst) if isinstance(dst, (list, tuple)) else [dst]
        if self.locality is not None and len(endpoints) > 1:
            # Stable sort: among same-region endpoints the caller's
            # preference order (coordinator first, home first) holds.
            endpoints = self.locality.order(endpoints)
        policy = policy if policy is not None else self.retry
        if policy is None:
            return self._issue(endpoints[0], payload, timeout)[1]
        key = None
        if idempotent:
            self._next_idem += 1
            key = (self.node_id, self._next_idem)
        return RpcCall(
            self, endpoints, payload, policy,
            timeout=timeout, idempotency_key=key,
        ).future


@dataclass(slots=True)
class _DedupEntry:
    """Server-side record of one idempotent request.

    Pending entries (handler still running) collect the retries'
    reply addresses; completed entries replay the cached result."""

    done: bool = False
    value: Any = None
    waiters: list = field(default_factory=list)   # (src, request_id)


class ServerNode(Node):
    """A node that serves typed request payloads.

    Subclasses define ``serve_<PayloadClassName>`` methods; each may
    return a plain value (replied immediately) or a :class:`Future`
    (replied when it resolves).

    ``service_time`` (ms, default 0 = infinitely fast) models the
    node's request-processing capacity: requests are admitted through
    a FIFO single-server queue, so one node saturates at
    ``1000 / service_time`` client ops per second.  It is what makes
    horizontal scaling (:mod:`repro.sharding`) measurable — without
    it every node has infinite capacity and sharding cannot help
    throughput.

    Requests carrying an idempotency key are deduplicated: the first
    copy runs the handler, concurrent copies attach to its outcome,
    and later copies replay the cached reply — at-most-once
    application per server.  Successful results survive a crash
    (modelling a persisted dedup table); in-flight entries die with
    the node so a post-recovery retry re-executes, and failed
    operations are forgotten so retrying them is meaningful.

    Overload control (both off by default):

    * ``queue_limit`` bounds the service queue: a request arriving
      with ``queue_limit`` requests already admitted is *shed* —
      rejected immediately with an :class:`~repro.errors
      .OverloadedError` carrying a ``retry_after`` hint — instead of
      queueing behind work it would time out waiting for.
    * ``admission_rate`` / ``admission_burst`` is a per-node token
      bucket (tokens = client ops; rate in ops/sec): requests beyond
      the sustained rate + burst are shed the same way.

    Shed requests never consume service time, never create dedup
    entries, and count in the shared ``server.shed`` counter; queue
    occupancy publishes as the ``server.queue_depth`` /
    ``server.queue_depth_peak`` gauges (aggregated across nodes).
    """

    #: Per-request processing time in ms; 0 disables queueing entirely.
    service_time: float = 0.0
    #: Cap on remembered idempotent results (oldest-completed evicted
    #: first; in-flight entries are never evicted).
    dedup_capacity: int = 1024
    #: Bounded service queue: admitted-but-unserved requests beyond
    #: this are shed (None = unbounded; only meaningful with a
    #: positive ``service_time``).
    queue_limit: int | None = None
    #: Token-bucket admission: sustained client ops/sec this node
    #: accepts (None = unthrottled).
    admission_rate: float | None = None
    #: Token-bucket burst capacity (ops admitted above the sustained
    #: rate before throttling kicks in).
    admission_burst: float = 8.0
    #: Membership overlay hook: set by :class:`repro.membership
    #: .MembershipService` when this node is monitored.  Gossip rides
    #: the ordinary message path (so partitions and crashes affect it
    #: exactly like protocol traffic) but bypasses admission control —
    #: a saturated node must still be able to prove it is alive.
    gossip: Any = None

    def __init__(self, sim, network, node_id: Hashable) -> None:
        super().__init__(sim, network, node_id)
        self._busy_until = 0.0
        self._queue_depth = 0
        self._tokens: float | None = None   # lazily filled to burst
        self._tokens_at = 0.0
        self._dedup: dict[Hashable, _DedupEntry] = {}
        #: Completed idempotent keys in completion order — the only
        #: entries :meth:`_trim_dedup` may evict, oldest-completed
        #: first (insertion-ordered dict used as a FIFO set).
        self._dedup_done: dict[Hashable, None] = {}
        self._dedup_hits = sim.metrics.counter("rpc.dedup_hits")
        self._shed = sim.metrics.counter("server.shed")
        self._g_queue_depth = sim.metrics.gauge("server.queue_depth")
        self._g_queue_peak = sim.metrics.gauge("server.queue_depth_peak")
        self._serve_cache: dict[type, Any] = {}

    def handle_GossipMsg(self, src: Hashable, msg: Any) -> None:
        if self.gossip is not None:
            self.gossip.on_gossip(self, src, msg)

    def handle_Request(self, src: Hashable, msg: Request) -> None:
        key = msg.idempotency_key
        if key is not None:
            entry = self._dedup.get(key)
            if entry is not None:
                # Replays and attaches bypass admission control: the
                # original was already admitted, and a replayed reply
                # costs no service time.
                self._dedup_hits.inc()
                if entry.done:
                    self.send(src, Reply(msg.request_id, entry.value))
                else:
                    entry.waiters.append((src, msg.request_id))
                return
        rejection = self._admission_check()
        if rejection is not None:
            self._shed.inc()
            self.send(src, _error_reply(msg.request_id, rejection))
            return
        if key is not None:
            # Record the entry at admission, not at dispatch: a retry
            # arriving while the original sits in the service queue
            # must not be queued (and executed) a second time.
            entry = _DedupEntry(waiters=[(src, msg.request_id)])
            self._dedup[key] = entry
            self._trim_dedup()
        if self.service_time <= 0:
            self._dispatch_request(src, msg)
            return
        start = max(self.sim.now, self._busy_until)
        self._busy_until = start + self.service_time
        self._set_queue_depth(self._queue_depth + 1)
        self.set_timer(self._busy_until - self.sim.now,
                       self._dispatch_queued, src, msg)

    # ------------------------------------------------------------------
    # Overload control
    # ------------------------------------------------------------------
    def _admission_check(self) -> OverloadedError | None:
        """The rejection to send, or None when the request is admitted
        (consuming a token when a bucket is configured)."""
        if (
            self.queue_limit is not None
            and self.service_time > 0
            and self._queue_depth >= self.queue_limit
        ):
            # Time until occupancy drops below the limit again: the
            # backlog drains one slot per service_time.
            drain = (self._busy_until - self.sim.now
                     - (self.queue_limit - 1) * self.service_time)
            return OverloadedError(
                f"{self.node_id} service queue full "
                f"({self._queue_depth}/{self.queue_limit})",
                retry_after=max(self.service_time, drain),
            )
        rate = self.admission_rate
        if rate is not None and rate > 0:
            tokens = self._tokens
            if tokens is None:
                tokens = self.admission_burst
            per_ms = rate / 1000.0
            tokens = min(
                self.admission_burst,
                tokens + (self.sim.now - self._tokens_at) * per_ms,
            )
            self._tokens_at = self.sim.now
            if tokens < 1.0:
                self._tokens = tokens
                return OverloadedError(
                    f"{self.node_id} over admission rate",
                    retry_after=(1.0 - tokens) / per_ms,
                )
            self._tokens = tokens - 1.0
        return None

    def _set_queue_depth(self, depth: int) -> None:
        delta = depth - self._queue_depth
        self._queue_depth = depth
        total = self._g_queue_depth.value + delta
        self._g_queue_depth.set(total)
        if total > self._g_queue_peak.value:
            self._g_queue_peak.set(total)

    def _dispatch_queued(self, src: Hashable, msg: Request) -> None:
        self._set_queue_depth(self._queue_depth - 1)
        self._dispatch_request(src, msg)

    def _dispatch_request(self, src: Hashable, msg: Request) -> None:
        payload_cls = type(msg.payload)
        handler = self._serve_cache.get(payload_cls)
        if handler is None:
            handler = getattr(self, f"serve_{payload_cls.__name__}", None)
            if handler is None:
                raise SimulationError(
                    f"{type(self).__name__} {self.node_id!r} cannot serve "
                    f"{payload_cls.__name__}"
                )
            self._serve_cache[payload_cls] = handler
        key = msg.idempotency_key
        entry = self._dedup.get(key) if key is not None else None
        try:
            result = handler(src, msg.payload)
        except ReproError as exc:
            if entry is not None:
                self._fail_idempotent(key, entry, exc)
            else:
                self.send(src, _error_reply(msg.request_id, exc))
            return
        if isinstance(result, Future):
            if entry is not None:
                result.add_callback(
                    lambda future: self._settle_idempotent(key, entry, future)
                )
            else:
                result.add_callback(
                    lambda future: self._reply_from_future(
                        src, msg.request_id, future
                    )
                )
        elif entry is not None:
            self._complete_idempotent(key, entry, result)
        else:
            self.send(src, Reply(msg.request_id, result))

    def _reply_from_future(
        self, src: Hashable, request_id: int, future: Future
    ) -> None:
        if self.crashed:
            return
        if future.error is not None:
            self.send(src, _error_reply(request_id, future.error))
        else:
            self.send(src, Reply(request_id, future.value))

    # ------------------------------------------------------------------
    # Idempotent-request bookkeeping
    # ------------------------------------------------------------------
    def _complete_idempotent(
        self, key: Hashable, entry: _DedupEntry, value: Any
    ) -> None:
        entry.done = True
        entry.value = value
        self._dedup_done[key] = None
        waiters, entry.waiters = entry.waiters, []
        for src, request_id in waiters:
            self.send(src, Reply(request_id, value))

    def _fail_idempotent(
        self, key: Hashable, entry: _DedupEntry, exc: BaseException
    ) -> None:
        # A failed operation was not applied; forget it so a retry
        # re-executes instead of replaying the failure forever.
        if self._dedup.get(key) is entry:
            del self._dedup[key]
        for src, request_id in entry.waiters:
            self.send(src, _error_reply(request_id, exc))

    def _settle_idempotent(
        self, key: Hashable, entry: _DedupEntry, future: Future
    ) -> None:
        if self.crashed:
            return
        if self._dedup.get(key) is not entry:
            return  # a crash dropped the entry while the op ran
        if future.error is not None:
            self._fail_idempotent(key, entry, future.error)
        else:
            self._complete_idempotent(key, entry, future.value)

    def _trim_dedup(self) -> None:
        # Evict completed entries only, oldest *completion* first: an
        # in-flight entry must never be dropped (its retry, already on
        # the wire, would re-execute and double-apply), and a
        # just-completed entry — whatever its admission time — is
        # exactly the one whose retries are still plausibly in flight.
        while len(self._dedup) > self.dedup_capacity and self._dedup_done:
            key = next(iter(self._dedup_done))
            del self._dedup_done[key]
            del self._dedup[key]

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def crash(self) -> None:
        if self.crashed:
            return
        super().crash()
        # The service queue died with the node (its dispatch timers
        # were cancelled); the pre-crash backlog must not push
        # _busy_until into the recovered node's future, and its
        # occupancy must leave the shared queue-depth gauge.
        self._busy_until = 0.0
        self._set_queue_depth(0)
        # In-flight idempotent ops died un-applied: drop their entries
        # so a post-recovery retry re-executes.  Completed results are
        # kept (a persisted dedup table).
        for key in [k for k, e in self._dedup.items() if not e.done]:
            del self._dedup[key]

    def recover(self) -> None:
        if not self.crashed:
            return
        self._busy_until = 0.0
        super().recover()


# ----------------------------------------------------------------------
# The protocol skeleton: everything about a single-group protocol that
# is not mechanism.  A protocol writes its wire messages, its replica's
# handlers and its client's verbs; the bases below supply the recorded
# client call, the cluster scaffold and the versioned store + sweep.
# ----------------------------------------------------------------------
class RecordingClient(ClientNode):
    """A client node bound to one session of one :class:`ReplicaGroup`,
    recording every operation into the group's history."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: Hashable,
        cluster: "ReplicaGroup",
        session: Hashable,
    ) -> None:
        super().__init__(sim, network, node_id)
        self.cluster = cluster
        self.session = session

    def _recorded(
        self, kind: str, key: Hashable, target: Hashable, inner: Future,
        extract,
    ) -> Future:
        """Record one operation around its RPC future ``inner``.

        ``target`` is the replica the operation was addressed to;
        ``extract(reply)`` gives ``(version, value)`` for the history —
        an integer version, or an orderable token when the group
        records through a :class:`~repro.histories
        .TokenHistoryRecorder`.  The returned future settles as
        ``inner`` does, after the history entry is written."""
        recorder = self.cluster.recorder
        handle = recorder.begin(kind, key, self.session, target)
        complete = getattr(recorder, "complete_token", recorder.complete)
        outer = Future(self.sim)

        def done(future: Future) -> None:
            if future.error is not None:
                recorder.fail(handle)
                outer.fail(future.error)
            else:
                version, value = extract(future.value)
                complete(handle, version, value)
                outer.resolve(future.value)

        inner.add_callback(done)
        return outer


class ReplicaGroup:
    """One group of replicas over a shared network, plus its clients.

    Subclasses name the replica and client classes and the id prefixes;
    replicas are built in id order as ``replica_class(sim, network,
    node_id, cluster)``.
    """

    replica_class: type
    client_class: type
    recorder_class: type = HistoryRecorder
    #: Default replica ids are ``<replica_prefix><i>``, default client
    #: ids ``<client_prefix>-<n>`` (sessions: ``session-<n>``).
    replica_prefix: str
    client_prefix: str

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        nodes: int = 3,
        node_ids: list[Hashable] | None = None,
    ) -> None:
        if nodes < 1:
            raise ValueError("need at least one replica")
        ids = list(node_ids) if node_ids else [
            f"{self.replica_prefix}{i}" for i in range(nodes)
        ]
        if len(ids) != nodes:
            raise ValueError(
                f"node_ids has {len(ids)} entries for {nodes} replicas"
            )
        self.sim = sim
        self.network = network
        self.node_ids = ids
        self.recorder = self.recorder_class(sim)
        self._clients = 0
        self.replicas = [
            self.replica_class(sim, network, node_id, self) for node_id in ids
        ]

    def connect(
        self,
        session: Hashable | None = None,
        client_id: Hashable | None = None,
        **opts: Any,
    ) -> RecordingClient:
        """Attach a new client node (one session) to the network;
        ``opts`` go to the protocol's client class."""
        self._clients += 1
        if session is None:
            session = f"session-{self._clients}"
        if client_id is None:
            client_id = f"{self.client_prefix}-{self._clients}"
        return self.client_class(
            self.sim, self.network, client_id, self, session, **opts
        )

    def replica(self, node_id: Hashable) -> ServerNode:
        for replica in self.replicas:
            if replica.node_id == node_id:
                return replica
        raise KeyError(node_id)

    def snapshots(self) -> list[dict]:
        return [replica.snapshot() for replica in self.replicas]


class VersionedReplica(ServerNode):
    """A replica storing ``key -> (value, version)`` where the highest
    version wins — safe exactly when one node (primary, head, record
    master) assigns each key's versions."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: Hashable,
        cluster: ReplicaGroup,
    ) -> None:
        super().__init__(sim, network, node_id)
        self.cluster = cluster
        self.data: dict[Hashable, tuple[Any, int]] = {}

    def install(self, key: Hashable, value: Any, version: int) -> None:
        current = self.data.get(key)
        if current is None or version > current[1]:
            self.data[key] = (value, version)

    def read(self, key: Hashable) -> tuple[Any, int]:
        return self.data.get(key, (None, 0))

    def snapshot(self) -> dict:
        return {key: value for key, (value, _version) in self.data.items()}


class VersionedGroup(ReplicaGroup):
    """A group of :class:`VersionedReplica`."""

    def anti_entropy_sweep(self) -> None:
        """Instantaneous catch-up between live replicas: every record
        flows to every other replica through ``install``, so the
        per-key highest version wins everywhere.  These protocols ship
        each write once — a replication message dropped by a partition
        is never re-sent — so the chaos runner sweeps after healing."""
        live = [replica for replica in self.replicas if not replica.crashed]
        for source in live:
            for key, (value, version) in list(source.data.items()):
                for target in live:
                    if target is not source:
                        target.install(key, value, version)
