"""Chain replication (van Renesse & Schneider).

The strong-consistency alternative to primary–backup the tutorial's
mechanism survey includes: replicas form a chain; writes enter at the
**head**, flow down, and are acknowledged by the **tail**; reads are
served by the tail alone.  Because the tail only exposes writes that
reached *every* replica, reads are linearizable without any quorum —
at the price of write latency proportional to chain length (measured
in the E1 spectrum as the strong-and-cheap-reads point).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable

from ..api import registry
from ..api.store import FnSession, StoreCapabilities, StoreSession
from ..errors import NotLeaderError
from ..rpc import RetryPolicy
from ..sim import Future, Network, Simulator
from .common import GroupClient, VersionedGroup, VersionedReplica


@dataclass
class CPut:
    key: Hashable
    value: Any


@dataclass
class CGet:
    key: Hashable


@dataclass
class ChainForward:
    write_id: int
    key: Hashable
    value: Any
    version: int


@dataclass
class ChainAck:
    write_id: int


class ChainReplica(VersionedReplica):
    """One link: knows its successor/predecessor by cluster position."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: Hashable,
        cluster: "ChainCluster",
    ) -> None:
        super().__init__(sim, network, node_id, cluster)
        self.index = cluster.node_ids.index(node_id)
        self._pending: dict[int, tuple[Future, int]] = {}
        self._write_ids = 0

    @property
    def is_head(self) -> bool:
        return self.index == 0

    @property
    def is_tail(self) -> bool:
        return self.index == len(self.cluster.replicas) - 1

    @property
    def successor(self) -> "ChainReplica | None":
        if self.is_tail:
            return None
        return self.cluster.replicas[self.index + 1]

    # -- client-facing -----------------------------------------------------
    def serve_CPut(self, src: Hashable, payload: CPut):
        if not self.is_head:
            raise NotLeaderError("writes must enter at the head")
        version = self.read(payload.key)[1] + 1
        self.install(payload.key, payload.value, version)
        if self.is_tail:  # single-node chain
            return version
        self._write_ids += 1
        write_id = self._write_ids
        future = Future(self.sim, label=("chain-write#{}", write_id))
        self._pending[write_id] = (future, version)
        self.send(
            self.successor.node_id,
            ChainForward(write_id, payload.key, payload.value, version),
        )
        return future

    def serve_CGet(self, src: Hashable, payload: CGet):
        if not self.is_tail:
            raise NotLeaderError("reads are served by the tail")
        return self.read(payload.key)

    # -- chain propagation -------------------------------------------------
    def handle_ChainForward(self, src: Hashable, msg: ChainForward) -> None:
        self.install(msg.key, msg.value, msg.version)
        if self.is_tail:
            # Ack flows straight back to the head.
            self.send(self.cluster.replicas[0].node_id, ChainAck(msg.write_id))
        else:
            self.send(self.successor.node_id, msg)

    def handle_ChainAck(self, src: Hashable, msg: ChainAck) -> None:
        entry = self._pending.pop(msg.write_id, None)
        if entry is None:
            return
        future, version = entry
        if not future.done:
            future.resolve(version)


class ChainClient(GroupClient):
    def put(self, key: Hashable, value: Any, timeout: float | None = None) -> Future:
        # Chain roles are fixed (writes at head, reads at tail), so
        # there are no failover endpoints — retries re-ask the same
        # node, deduped by the idempotency key.
        head = self.cluster.head.node_id
        return self.call(head, CPut(key, value), timeout, idempotent=True)

    def get(self, key: Hashable, timeout: float | None = None) -> Future:
        return self.call(self.cluster.tail.node_id, CGet(key), timeout)


@registry.register(StoreCapabilities(
    name="chain",
    description="chain replication: writes at head, linearizable tail reads",
    read_modes=("tail",),
    survives_replica_crash=False,
    linearizable_read_modes=("tail",),
))
class ChainCluster(VersionedGroup):
    """A static chain of replicas: head = replicas[0], tail = last."""

    replica_class = ChainReplica
    client_class = ChainClient
    replica_prefix = "ch"
    client_prefix = "chclient"

    @property
    def head(self) -> ChainReplica:
        return self.replicas[0]

    @property
    def tail(self) -> ChainReplica:
        return self.replicas[-1]

    def session(
        self,
        name: Hashable | None = None,
        retry: RetryPolicy | None = None,
        **opts: Any,
    ) -> StoreSession:
        client, _pref, region = self._open(name, retry, opts)
        return FnSession(
            client,
            put_fn=lambda k, v, t: client.put(k, v, timeout=t),
            read_fns={"tail": self._versioned(client.get)},
            default_mode="tail",
            region=region,
        )
