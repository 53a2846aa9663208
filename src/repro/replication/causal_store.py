"""A causally consistent replicated KV store (COPS-style).

The tutorial's "causal consistency" rung as a *server-side* mechanism
(complementing the client-side session layer): every replica accepts
writes locally (always available, like EC) but replicates them through
a reliable **causal broadcast** — a write becomes visible at a remote
replica only after every write it causally depends on.  Dependencies
are the writer's context: its own previous writes plus the writes its
replica had applied (COPS's dependency tracking collapsed into a
version vector, which over-approximates the dependency set but never
under-delivers).

Guarantees (and their checkers):

* causal consistency across replicas — :func:`repro.checkers.check_causal`
  passes on any recorded history;
* all four session guarantees for a client pinned to one replica;
* convergence: concurrent writes to a key are arbitrated by a
  causality-compatible total rank, so replicas agree.

Not guaranteed: linearizability — remote reads can be stale, which is
the point: causal is the strongest model compatible with
always-available local operation (Mahajan et al.), sitting between the
session rungs and the quorum rungs of E1's spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable

from ..api import registry
from ..api.store import FnSession, StoreCapabilities, StoreSession, mapped_future
from ..clocks import CausalBuffer, OpEnvelope
from ..rpc import RetryPolicy
from ..sim import Future, Network, Simulator
from .common import GroupClient, ReplicaGroup, ServerNode

#: Arbitration rank of a write: grows along causality (vector-clock
#: sum strictly increases on causal successors) and breaks concurrent
#: ties by origin — a Lamport-style total order compatible with the
#: causal partial order.
Rank = tuple[int, str]


@dataclass
class CPutLocal:
    """Client → replica: write at this replica."""

    key: Hashable
    value: Any


@dataclass
class CGetLocal:
    """Client → replica: read this replica's view."""

    key: Hashable


@dataclass(frozen=True)
class _WritePayload:
    key: Hashable
    value: Any


def _rank_of(envelope: OpEnvelope) -> Rank:
    return (sum(envelope.clock.values()), str(envelope.origin))


class CausalReplica(ServerNode):
    """One replica: local reads/writes + causal broadcast of writes."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: Hashable,
        cluster: "CausalCluster",
    ) -> None:
        super().__init__(sim, network, node_id)
        self.cluster = cluster
        self._peers = [peer for peer in cluster.node_ids if peer != node_id]
        self.buffer = CausalBuffer(node_id, self._apply)
        self.data: dict[Hashable, tuple[Any, Rank]] = {}
        #: Every envelope this replica has applied, in application
        #: order — the anti-entropy exchange set.  Replays are cheap:
        #: :class:`CausalBuffer` drops an envelope its clock covers.
        self.applied_log: list[OpEnvelope] = []

    # -- client-facing -----------------------------------------------------
    def serve_CPutLocal(self, src: Hashable, payload: CPutLocal):
        envelope = self.buffer.stamp_local(
            _WritePayload(payload.key, payload.value)
        )
        self.cluster._c_writes_local.inc()
        self.send_many(self._peers, envelope)
        return _rank_of(envelope)

    def serve_CGetLocal(self, src: Hashable, payload: CGetLocal):
        self.cluster._c_reads_local.inc()
        value, rank = self.data.get(payload.key, (None, None))
        return value, rank

    # -- replication --------------------------------------------------------
    def handle_OpEnvelope(self, src: Hashable, envelope: OpEnvelope) -> None:
        self.buffer.receive(envelope)

    def _apply(self, envelope: OpEnvelope) -> None:
        payload: _WritePayload = envelope.payload
        rank = _rank_of(envelope)
        self.applied_log.append(envelope)
        self.cluster._c_ops_applied.inc()
        current = self.data.get(payload.key)
        if current is None or rank > current[1]:
            self.data[payload.key] = (payload.value, rank)

    def snapshot(self) -> dict:
        return {key: value for key, (value, _rank) in self.data.items()}


class CausalClient(GroupClient):
    """A client pinned to one replica (its 'local datacenter')."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: Hashable,
        cluster: "CausalCluster",
        session: Hashable,
        home: Hashable,
    ) -> None:
        super().__init__(sim, network, node_id, cluster, session)
        #: Failover order: the home replica, then every other replica —
        #: any COPS replica accepts local reads and writes.
        self._endpoints = [home] + [
            node for node in cluster.node_ids if node != home
        ]

    def put(self, key: Hashable, value: Any, timeout: float | None = None) -> Future:
        """Local write; resolves with the write's arbitration rank."""
        return self.call(self._endpoints, CPutLocal(key, value), timeout,
                         idempotent=True)

    def get(self, key: Hashable, timeout: float | None = None) -> Future:
        """Local read; resolves with ``(value, rank-or-None)``."""
        return self.call(self._endpoints, CGetLocal(key), timeout)


@registry.register(StoreCapabilities(
    name="causal",
    description="COPS-style causal broadcast KV; local reads/writes",
    read_modes=("local",),
    session_guarantees=("ryw", "mr", "mw", "wfr"),
    failover_reads=True,
    failover_writes=True,
))
class CausalCluster(ReplicaGroup):
    """COPS-style causal KV: local ops + causal broadcast."""

    replica_class = CausalReplica
    client_class = CausalClient
    replica_prefix = "cc"
    client_prefix = "ccclient"
    #: Round-robin cursor for sessions opened without ``home=``.
    _next_home = 0

    def __init__(self, sim: Simulator, network: Network, **group: Any) -> None:
        metrics = sim.metrics
        self._c_writes_local = metrics.counter("causal.writes_local")
        self._c_reads_local = metrics.counter("causal.reads_local")
        self._c_ops_applied = metrics.counter("causal.ops_applied")
        self._g_pending = metrics.gauge("causal.pending")
        super().__init__(sim, network, **group)

    def session(
        self,
        name: Hashable | None = None,
        home: Hashable | None = None,
        retry: RetryPolicy | None = None,
        **opts: Any,
    ) -> StoreSession:
        if home is None:
            ids = self.node_ids
            home = ids[self._next_home % len(ids)]
            self._next_home += 1
        client, _pref, region = self._open(
            name, retry, {**opts, "home": home}
        )
        return FnSession(
            client.session,
            put_fn=lambda k, v, t: mapped_future(
                self.sim, client.put(k, v, timeout=t), tuple,
            ),
            read_fns={
                "local": lambda k, t: mapped_future(
                    self.sim, client.get(k, timeout=t),
                    lambda reply: (
                        reply[0],
                        tuple(reply[1]) if reply[1] is not None else None,
                    ),
                ),
            },
            default_mode="local",
            client_id=client.node_id,
            client=client,
            region=region,
        )

    def settle(self) -> None:
        """Instantaneous pairwise exchange of applied logs until a
        fixpoint: each live replica replays everything it has applied
        into every other live replica's causal buffer (duplicates are
        dropped by version vector; hold-back delivers in causal order).
        Used by the chaos runner to quiesce after healing — the causal
        broadcast sends each write exactly once, so writes broadcast
        into a partition are otherwise lost forever."""
        while True:
            before = sum(len(r.applied_log) for r in self.replicas
                         if not r.crashed)
            for source in self.replicas:
                if source.crashed:
                    continue
                for envelope in list(source.applied_log):
                    for target in self.replicas:
                        if target is not source and not target.crashed:
                            target.buffer.receive(envelope)
            after = sum(len(r.applied_log) for r in self.replicas
                        if not r.crashed)
            if after == before:
                return

    def pending_total(self) -> int:
        """Writes still held back waiting for causal dependencies."""
        total = sum(r.buffer.pending_count for r in self.replicas)
        self._g_pending.set(total)
        return total
