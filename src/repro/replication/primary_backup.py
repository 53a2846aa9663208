"""Primary–backup (master–slave) replication.

The oldest point in the tutorial's design space: one primary orders
all writes and ships them to backups.  The knobs:

* ``mode`` — when the primary acknowledges a write:
  - ``"async"``  : after applying locally (backups catch up later;
    backup reads can be stale, failover can lose acked writes),
  - ``"sync"``   : after *every* backup acked (strong, slow, fragile
    under partition),
  - ``"quorum"`` : after a majority acked (strong-ish, partition
    tolerant — the Cloud SQL Server configuration).
* where clients read — the primary (linearizable while a single
  primary exists) or any backup (fast, possibly stale).

Versions are dense per-key integers assigned by the primary — exactly
what the history checkers consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable

from ..errors import NotLeaderError, UnavailableError
from ..sim import Future, Network, Simulator
from .common import RecordingClient, VersionedGroup, VersionedReplica

VALID_MODES = ("async", "sync", "quorum")


@dataclass
class PutPayload:
    key: Hashable
    value: Any


@dataclass
class GetPayload:
    key: Hashable


@dataclass
class ReplicateMsg:
    key: Hashable
    value: Any
    version: int
    write_id: int


@dataclass
class ReplicateAck:
    write_id: int


class PBReplica(VersionedReplica):
    """One primary/backup storage node."""

    def __init__(
        self, sim: Simulator, network: Network, node_id: Hashable, cluster:
        "PrimaryBackupCluster"
    ) -> None:
        super().__init__(sim, network, node_id, cluster)
        self.is_primary = False
        self._write_ids = 0
        self._pending: dict[int, tuple[Future, int, int]] = {}  # id -> (future, version, acks_left)

    # -- client-facing ------------------------------------------------------
    def serve_GetPayload(self, src: Hashable, payload: GetPayload):
        return self.read(payload.key)

    def serve_PutPayload(self, src: Hashable, payload: PutPayload):
        if not self.is_primary:
            raise NotLeaderError(
                f"{self.node_id!r} is a backup; writes go to the primary"
            )
        version = self.read(payload.key)[1] + 1
        self.install(payload.key, payload.value, version)
        backups = [r for r in self.cluster.replicas if r is not self]
        acks_needed = self.cluster.acks_needed(len(backups))
        self._write_ids += 1
        write_id = self._write_ids
        self.send_many(
            [backup.node_id for backup in backups],
            ReplicateMsg(payload.key, payload.value, version, write_id),
        )
        if acks_needed == 0:
            return version
        future = Future(self.sim, label=("pb-write#{}", write_id))
        self._pending[write_id] = (future, version, acks_needed)
        return future

    # -- replication ----------------------------------------------------
    def handle_ReplicateMsg(self, src: Hashable, msg: ReplicateMsg) -> None:
        self.install(msg.key, msg.value, msg.version)
        self.send(src, ReplicateAck(msg.write_id))

    def handle_ReplicateAck(self, src: Hashable, msg: ReplicateAck) -> None:
        entry = self._pending.get(msg.write_id)
        if entry is None:
            return
        future, version, acks_left = entry
        acks_left -= 1
        if acks_left <= 0:
            del self._pending[msg.write_id]
            future.resolve(version)
        else:
            self._pending[msg.write_id] = (future, version, acks_left)

    def on_crash(self) -> None:
        # In-flight writes never ack; clients time out.
        self._pending.clear()


class PBClient(RecordingClient):
    """Client handle bound to one session, recording history."""

    def put(
        self, key: Hashable, value: Any, timeout: float | None = None
    ) -> Future:
        """Write through the primary; resolves with the new version."""
        primary = self.cluster.primary.node_id
        # Writes only the primary can accept: no failover endpoints,
        # but retried writes dedup at the primary.
        inner = self.call(primary, PutPayload(key, value), timeout,
                          idempotent=True)
        return self._recorded("write", key, primary, inner,
                              lambda v: (v, value))

    def get(
        self,
        key: Hashable,
        replica: "PBReplica | None" = None,
        timeout: float | None = None,
    ) -> Future:
        """Read from ``replica`` (default primary); resolves with
        ``(value, version)``."""
        target = replica or self.cluster.primary
        # Reads fail over across the replica set (trading freshness
        # for availability, the EC bargain); writes do not.
        endpoints = [target.node_id] + [
            r.node_id for r in self.cluster.replicas if r is not target
        ]
        inner = self.call(endpoints, GetPayload(key), timeout)
        return self._recorded("read", key, target.node_id, inner,
                              lambda v: (v[1], v[0]))


class PrimaryBackupCluster(VersionedGroup):
    """A primary plus ``n - 1`` backups over a shared network."""

    replica_class = PBReplica
    client_class = PBClient
    replica_prefix = "pb"
    client_prefix = "client"

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        n: int = 3,
        mode: str = "async",
        node_ids: list[Hashable] | None = None,
    ) -> None:
        if mode not in VALID_MODES:
            raise ValueError(f"mode must be one of {VALID_MODES}")
        super().__init__(sim, network, n, node_ids)
        self.mode = mode
        self.replicas[0].is_primary = True

    @property
    def primary(self) -> PBReplica:
        for replica in self.replicas:
            if replica.is_primary:
                return replica
        raise UnavailableError("no primary")

    @property
    def backups(self) -> list[PBReplica]:
        return [r for r in self.replicas if not r.is_primary]

    def acks_needed(self, backup_count: int) -> int:
        if self.mode == "async" or backup_count == 0:
            return 0
        if self.mode == "sync":
            return backup_count
        return (backup_count + 1) // 2  # majority of all replicas incl. self

    def promote(self, replica: PBReplica) -> None:
        """Manual failover.  With ``async`` mode this can lose acked
        writes — deliberately reproducible (discussed in E1/E12)."""
        if replica not in self.replicas:
            raise ValueError("unknown replica")
        for r in self.replicas:
            r.is_primary = False
        replica.is_primary = True
