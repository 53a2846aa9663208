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

from ..api import registry
from ..api.store import READ_PREFERENCES, FnSession, StoreCapabilities, StoreSession
from ..client import SessionState
from ..errors import UnavailableError
from ..rpc import RetryPolicy
from ..sim import Future, Network, Simulator
from .common import ClientNode, GroupClient, VersionedGroup, VersionedReplica
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


class TimelineClient(GroupClient):
    """Client with a session token (the floor its critical reads
    carry)."""

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
        self.token = SessionState()

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
        written = self.call(master, TWrite(key, value), timeout,
                            idempotent=True)

        def bump_floor(future: Future) -> None:
            if future.error is None:
                self.token.note_write(key, future.value)

        written.add_callback(bump_floor)
        return written

    def read_any(self, key: Hashable, timeout: float | None = None) -> Future:
        """Fast read from the home replica; may be stale."""
        target = self._reader(key)
        return self.call(self._read_endpoints(target), TReadAny(key), timeout)

    def read_critical(
        self, key: Hashable, min_version: int | None = None,
        timeout: float | None = None,
    ) -> Future:
        """Read at least the session's floor version (or an explicit
        one); blocks until propagation catches up."""
        floor = (
            min_version
            if min_version is not None
            else self.token.required(key, ("ryw", "mr")) or 0
        )
        target = self._reader(key)
        read = self.call(self._read_endpoints(target),
                         TReadCritical(key, floor), timeout)

        def bump_floor(future: Future) -> None:
            if future.error is None:
                self.token.note_read(key, future.value[1])

        read.add_callback(bump_floor)
        return read

    def read_latest(self, key: Hashable, timeout: float | None = None) -> Future:
        """Read from the record master (up-to-date)."""
        return self.call(self.cluster.master_of(key), TReadAny(key), timeout)


@registry.register(StoreCapabilities(
    name="timeline",
    description="PNUTS per-record mastership; any/critical/latest reads",
    read_modes=("any", "critical", "latest"),
    session_guarantees=("ryw", "mr", "mw", "wfr"),
    failover_reads=True,
    read_preferences=READ_PREFERENCES,
))
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
        propagation_delay: float = 0.0,
        **group: Any,
    ) -> None:
        super().__init__(sim, network, **group)
        self.propagation_delay = propagation_delay
        self.ring = HashRing(self.node_ids, vnodes=16)
        self._masters: dict[Hashable, Hashable] = {}
        # Internal client node used for write forwarding between replicas.
        self._forwarder = ClientNode(sim, network, f"{self.node_ids[0]}-fwd")
        if self.placement is not None:
            # The write-forwarding proxy lives with the first replica,
            # so forwarded writes pay one WAN hop, not a mystery-region
            # hop.
            self.placement.place(
                self._forwarder.node_id,
                self.placement.region_of(self.node_ids[0]),
            )

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

    def session(
        self,
        name: Hashable | None = None,
        retry: RetryPolicy | None = None,
        **opts: Any,
    ) -> StoreSession:
        client, read_preference, region = self._open(
            name, retry, opts, pin="home", candidates=self.node_ids,
        )
        # Authoritative reads: the record master, wherever it is.
        default_mode = "latest" if read_preference == "primary" else "any"
        return FnSession(
            client,
            put_fn=lambda k, v, t: client.write(k, v, timeout=t),
            read_fns={
                "any": self._versioned(client.read_any),
                "critical": self._versioned(client.read_critical),
                "latest": self._versioned(client.read_latest),
            },
            default_mode=default_mode,
            read_preference=read_preference,
            region=region,
        )
