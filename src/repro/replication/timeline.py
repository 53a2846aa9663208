"""PNUTS-style per-record timeline consistency.

Yahoo!'s PNUTS point in the design space: every *record* has a master
replica; all writes to the record funnel through its master, which
assigns a per-record sequence number and propagates asynchronously.
Replicas may lag, but every replica moves along the *same* version
timeline — no forks, no siblings.  Clients choose per read:

* ``read_any``      — any replica, possibly stale, never off-timeline,
* ``read_critical`` — any replica that has reached a required version
  (waits for propagation; serves session guarantees),
* ``read_latest``   — the record's master (up-to-date),

plus ``write`` (forwarded to the record's master).  E12 measures the
stale-read fraction vs. propagation lag, and that timeline order makes
monotonic-reads violations impossible once ``read_critical`` carries
the session's floor version.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable

from ..errors import UnavailableError
from ..sim import Future, Network, Simulator
from .common import ClientNode, RecordingClient, VersionedGroup, VersionedReplica
from .ring import HashRing


@dataclass
class TWrite:
    key: Hashable
    value: Any


@dataclass
class TReadAny:
    key: Hashable


@dataclass
class TReadCritical:
    key: Hashable
    min_version: int


@dataclass
class PropagateMsg:
    key: Hashable
    value: Any
    version: int


class TimelineReplica(VersionedReplica):
    """Holds every record; masters the records the ring assigns it."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: Hashable,
        cluster: "TimelineCluster",
    ) -> None:
        super().__init__(sim, network, node_id, cluster)
        self._waiters: dict[Hashable, list[tuple[int, Future]]] = {}

    # -- mastering ---------------------------------------------------------
    def is_master_of(self, key: Hashable) -> bool:
        return self.cluster.master_of(key) == self.node_id

    def serve_TWrite(self, src: Hashable, payload: TWrite):
        if not self.is_master_of(payload.key):
            # Forward to the record master and relay its answer.
            return self._forwarded_write(payload)
        version = self.read(payload.key)[1] + 1
        self.install(payload.key, payload.value, version)
        delay = self.cluster.propagation_delay
        message = PropagateMsg(payload.key, payload.value, version)
        for peer in self.cluster.node_ids:
            if peer != self.node_id:
                if delay > 0:
                    self.set_timer(
                        delay * self.sim.rng.uniform(0.5, 1.5),
                        self.send,
                        peer,
                        message,
                    )
                else:
                    self.send(peer, message)
        return version

    def _forwarded_write(self, payload: TWrite) -> Future:
        master = self.cluster.master_of(payload.key)
        future = Future(self.sim, label=("fwd-write({!r})", payload.key))
        proxy = self.cluster._forwarder
        proxy.request(master, payload).add_callback(
            lambda inner: (
                future.fail(inner.error)
                if inner.error is not None
                else future.resolve(inner.value)
            )
        )
        return future

    # -- reads ------------------------------------------------------------
    def serve_TReadAny(self, src: Hashable, payload: TReadAny):
        return self.read(payload.key)

    def serve_TReadCritical(self, src: Hashable, payload: TReadCritical):
        value, version = self.read(payload.key)
        if version >= payload.min_version:
            return (value, version)
        future = Future(self.sim, label=("critical({!r})", payload.key))
        self._waiters.setdefault(payload.key, []).append(
            (payload.min_version, future)
        )
        return future

    # -- propagation ---------------------------------------------------------
    def handle_PropagateMsg(self, src: Hashable, msg: PropagateMsg) -> None:
        self.install(msg.key, msg.value, msg.version)

    def install(self, key: Hashable, value: Any, version: int) -> None:
        """Install, then wake the critical reads the stored version
        now satisfies."""
        super().install(key, value, version)
        waiters = self._waiters.get(key)
        if not waiters:
            return
        stored_value, stored_version = self.data[key]
        still_waiting = []
        for min_version, future in waiters:
            if stored_version >= min_version:
                future.try_resolve((stored_value, stored_version))
            else:
                still_waiting.append((min_version, future))
        if still_waiting:
            self._waiters[key] = still_waiting
        else:
            del self._waiters[key]


class TimelineClient(RecordingClient):
    """Client with per-session read floors (for critical reads)."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: Hashable,
        cluster: "TimelineCluster",
        session: Hashable,
        home: Hashable | None = None,
    ) -> None:
        super().__init__(sim, network, node_id, cluster, session)
        self.home = home  # preferred replica for reads (nearest site)
        self.floors: dict[Hashable, int] = {}  # key -> min acceptable version

    def _reader(self, key: Hashable) -> Hashable:
        if self.home is not None:
            return self.home
        nodes = self.cluster.node_ids
        return nodes[self.sim.rng.randrange(len(nodes))]

    def _read_endpoints(self, target: Hashable) -> list:
        """Failover order for any/critical reads: the preferred replica,
        then the rest — every replica serves timeline reads (critical
        reads block at the floor wherever they land).  ``read_latest``
        is pinned to the master and does not fail over."""
        return [target] + [
            node for node in self.cluster.node_ids if node != target
        ]

    def write(self, key: Hashable, value: Any, timeout: float | None = None) -> Future:
        """Resolves with the new version (master-assigned seqno)."""
        master = self.cluster.master_of(key)
        # Writes are mastered: there is no useful failover target (a
        # non-master would only forward back to the same master), but
        # retries still dedup server-side via the idempotency key.
        inner = self.call(master, TWrite(key, value), timeout,
                          idempotent=True)
        outer = self._recorded("write", key, master, inner, lambda v: (v, value))

        def bump_floor(future: Future) -> None:
            if future.error is None:
                self.floors[key] = max(self.floors.get(key, 0), future.value)

        outer.add_callback(bump_floor)
        return outer

    def read_any(self, key: Hashable, timeout: float | None = None) -> Future:
        """Fast read from the home replica; may be stale."""
        target = self._reader(key)
        inner = self.call(self._read_endpoints(target), TReadAny(key), timeout)
        return self._recorded("read", key, target, inner, lambda v: (v[1], v[0]))

    def read_critical(
        self, key: Hashable, min_version: int | None = None,
        timeout: float | None = None,
    ) -> Future:
        """Read at least the session's floor version (or an explicit
        one); blocks until propagation catches up."""
        floor = (
            min_version
            if min_version is not None
            else self.floors.get(key, 0)
        )
        target = self._reader(key)
        inner = self.call(self._read_endpoints(target),
                          TReadCritical(key, floor), timeout)
        outer = self._recorded("read", key, target, inner, lambda v: (v[1], v[0]))

        def bump_floor(future: Future) -> None:
            if future.error is None:
                self.floors[key] = max(self.floors.get(key, 0), future.value[1])

        outer.add_callback(bump_floor)
        return outer

    def read_latest(self, key: Hashable, timeout: float | None = None) -> Future:
        """Read from the record master (up-to-date)."""
        master = self.cluster.master_of(key)
        inner = self.call(master, TReadAny(key), timeout)
        return self._recorded("read", key, master, inner, lambda v: (v[1], v[0]))


class TimelineCluster(VersionedGroup):
    """Replicas with ring-assigned per-record mastership."""

    replica_class = TimelineReplica
    client_class = TimelineClient
    replica_prefix = "tl"
    client_prefix = "tlclient"

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        nodes: int = 3,
        propagation_delay: float = 0.0,
        node_ids: list[Hashable] | None = None,
    ) -> None:
        super().__init__(sim, network, nodes, node_ids)
        self.propagation_delay = propagation_delay
        self.ring = HashRing(self.node_ids, vnodes=16)
        self._masters: dict[Hashable, Hashable] = {}
        # Internal client node used for write forwarding between replicas.
        self._forwarder = ClientNode(sim, network, f"{self.node_ids[0]}-fwd")

    def master_of(self, key: Hashable) -> Hashable:
        master = self._masters.get(key)
        if master is None:
            master = self.ring.coordinator(key)
            self._masters[key] = master
        return master

    def set_master(self, key: Hashable, node_id: Hashable) -> None:
        """Mastership migration (PNUTS moves masters to write locality)."""
        if node_id not in self.node_ids:
            raise UnavailableError(f"unknown node {node_id!r}")
        self._masters[key] = node_id
