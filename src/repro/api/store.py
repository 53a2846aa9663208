"""The protocol-agnostic store interface.

The tutorial's taxonomy has one axis of consistency guarantees and one
axis of mechanisms — but a *client* only ever sees a key-value store.
:class:`ConsistentStore` is that client surface, one per replication
mechanism: ``put``/``get`` sessions plus a declared
:class:`StoreCapabilities` record saying which read modes, session
guarantees, and failure behaviors the mechanism offers.  Everything
above this layer — the workload driver, the sharded router, the CLI,
the conformance suite — is written once against this interface and
works for every registered protocol.

Contract
--------
* ``store.session(name)`` returns a :class:`StoreSession` — one
  client session attached to the simulated network.
* ``session.put(key, value, timeout=) -> Future`` resolves with a
  protocol-specific **version token** (Lamport stamp, causal rank,
  sequence number, …) whose only required property is a total order
  within a key.
* ``session.get(key, mode=, timeout=) -> Future`` resolves with
  ``(value, token)``.  ``mode`` must be one of
  ``store.capabilities.read_modes``.
* Failures surface as :class:`repro.errors.ReproError` on the future.
* A store keeps no history of its own: the workload driver
  (:mod:`repro.workload.driver`) records one entry per op at this
  boundary, the same way for every store.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Hashable

from ..sim import Future, Network, Simulator

#: The read preferences a region-aware session may request.
#:
#: * ``primary`` — route reads to the authoritative replica (master,
#:   coordinator, primary) wherever it lives; strongest semantics, WAN
#:   round trips when the primary is remote.
#: * ``local_follower`` — read a replica in the session's own region;
#:   eventual/bounded-staleness semantics at intra-region latency.
#: * ``nearest`` — read whichever replica is cheapest to reach from
#:   the session's region (the local one when the region holds a
#:   replica, else the closest remote region).
READ_PREFERENCES = ("primary", "local_follower", "nearest")


@dataclass(frozen=True)
class StoreCapabilities:
    """What a registered protocol can do, for drivers and the CLI."""

    name: str
    description: str = ""
    #: Read modes ``get`` accepts; index 0 is the default.
    read_modes: tuple[str, ...] = ("default",)
    #: Session guarantees enforceable via ``session(guarantees=...)``.
    session_guarantees: tuple[str, ...] = ()
    #: Exposes a tentative (pre-commit) read view.
    tentative_reads: bool = False
    #: Reads may return multiple sibling values.
    multi_value_reads: bool = False
    #: Clients reach the store over the simulated network (False for
    #: Bayou's direct-attach replicas).
    networked: bool = True
    #: Client ops keep succeeding when one non-coordinator replica
    #: crashes (chain replication famously does not, without
    #: reconfiguration).
    survives_replica_crash: bool = True
    #: Writes may be safely retried: the client attaches idempotency
    #: keys, so a re-sent write is applied at most once per server.
    retry_safe_writes: bool = True
    #: Retried reads rotate to other replicas when the preferred
    #: endpoint is down (False where one fixed node must serve the
    #: mode's semantics, e.g. chain tails and Paxos leaders).
    failover_reads: bool = False
    #: Retried writes rotate to other replicas (only protocols where
    #: any replica can coordinate or accept a write).
    failover_writes: bool = False
    #: Read modes whose completed reads are linearizable; the chaos
    #: conformance suite runs the linearizability checker on histories
    #: recorded in these modes (empty = no linearizability claim).
    linearizable_read_modes: tuple[str, ...] = ()
    #: Replicas converge once faults heal and :meth:`ConsistentStore
    #: .settle` quiesces the store — the liveness half of eventual
    #: consistency, asserted by the chaos convergence check.
    eventually_convergent: bool = True
    #: Topology is live: the store supports ``resize()`` /
    #: ``add_shard()`` / ``decommission_shard()`` mid-run (the elastic
    #: sharded router; fixed single clusters say False).
    elastic: bool = False
    #: Read preferences honoured by ``session(read_preference=...,
    #: region=...)`` when the store was built with a
    #: :class:`~repro.placement.Placement` (subset of
    #: :data:`READ_PREFERENCES`; empty = region-blind adapter).
    read_preferences: tuple[str, ...] = ()
    #: Guarantees this adapter explicitly does *not* defend under
    #: injected faults, as ``(guarantee, reason)`` pairs.  The chaos
    #: runner reports them as WAIVED instead of failing — a waiver is
    #: a documented design limitation, not a free pass: the reason is
    #: printed in every verdict table.
    chaos_waivers: tuple[tuple[str, str], ...] = ()
    #: Declared upper bound (simulated ms) on the t-visibility
    #: staleness a default-mode read may exhibit, when the store can
    #: promise one — a cache over a fresh backing store declares
    #: roughly its TTL plus write-visibility lag.  ``None`` = no
    #: declared bound; the conformance suites check
    #: ``check_bounded_staleness`` against this number when set.
    staleness_bound_ms: float | None = None

    @property
    def default_read_mode(self) -> str:
        return self.read_modes[0]

    def waiver_for(self, guarantee: str) -> str | None:
        """The documented waiver reason for ``guarantee``, if any."""
        for name, reason in self.chaos_waivers:
            if name == guarantee:
                return reason
        return None


class StoreSession(ABC):
    """One client session: the uniform ``put``/``get`` surface."""

    #: Session name (used as the history session id).
    name: Hashable
    #: The session's network node id, when it is a network client.
    client_id: Hashable | None = None
    #: The read preference this session was opened with (one of
    #: :data:`READ_PREFERENCES`), or ``None`` for region-blind sessions.
    read_preference: str | None = None
    #: The region this session originates from, when placed.
    region: str | None = None

    @abstractmethod
    def put(
        self, key: Hashable, value: Any, timeout: float | None = None
    ) -> Future:
        """Write; resolves with the write's version token."""

    @abstractmethod
    def get(
        self,
        key: Hashable,
        mode: str | None = None,
        timeout: float | None = None,
    ) -> Future:
        """Read; resolves with ``(value, version token)``."""


class FnSession(StoreSession):
    """A session assembled from per-mode read callables.

    Most adapters are exactly this: a wrapped protocol client, one
    ``put`` callable, and a dict of read-mode callables — each taking
    ``(key, timeout)`` and returning a future already normalized to
    the contract above.
    """

    def __init__(
        self,
        name: Hashable,
        put_fn: Callable[[Hashable, Any, float | None], Future],
        read_fns: dict[str, Callable[[Hashable, float | None], Future]],
        default_mode: str,
        client_id: Hashable | None = None,
        client: Any = None,
        read_preference: str | None = None,
        region: str | None = None,
    ) -> None:
        self.name = name
        self.client_id = client_id
        self.client = client           # underlying protocol client (escape hatch)
        self.read_preference = read_preference
        self.region = region
        self._put_fn = put_fn
        self._read_fns = read_fns
        self._default_mode = default_mode

    def put(
        self, key: Hashable, value: Any, timeout: float | None = None
    ) -> Future:
        return self._put_fn(key, value, timeout)

    def get(
        self,
        key: Hashable,
        mode: str | None = None,
        timeout: float | None = None,
    ) -> Future:
        mode = mode or self._default_mode
        read_fn = self._read_fns.get(mode)
        if read_fn is None:
            raise ValueError(
                f"store does not support read mode {mode!r}; "
                f"have {sorted(self._read_fns)}"
            )
        return read_fn(key, timeout)


class ConsistentStore(ABC):
    """A replicated KV store behind one client surface.

    Adapters wrap the concrete cluster classes in
    :mod:`repro.replication` / :mod:`repro.sla`; the wrapped cluster
    stays reachable as ``store.cluster`` for protocol-specific
    experimentation.
    """

    capabilities: StoreCapabilities

    #: The :class:`~repro.placement.Placement` the store was built
    #: with, when region-aware (adapters accepting ``placement=`` set
    #: it; the nemesis and routing layers read it duck-typed).
    placement = None

    def __init__(self, sim: Simulator, network: Network) -> None:
        self.sim = sim
        self.network = network

    @abstractmethod
    def session(self, name: Hashable | None = None, **opts: Any) -> StoreSession:
        """Create a client session (``opts`` are adapter-specific:
        ``coordinator=``, ``home=``, ``guarantees=``, ``sla=`` …).  On a
        store built with ``placement=``, every networked adapter also
        takes ``region=`` (where the session's client node lives) and
        the ``read_preference=`` values its capabilities declare."""

    @abstractmethod
    def server_ids(self) -> list[Hashable]:
        """Ids of the server/replica nodes (for fault injection)."""

    def snapshots(self) -> list[dict]:
        """Per-replica state snapshots (for convergence checks)."""
        raise NotImplementedError

    def resize(self, shards: int, **opts: Any) -> Future:
        """Grow/shrink a live topology to ``shards`` shards (elastic
        stores only); resolves when the last ring move commits."""
        raise NotImplementedError(
            f"{self.capabilities.name} is not elastic; topology is "
            "fixed at build time"
        )

    def settle(self) -> None:
        """Force quiescence (anti-entropy sweep etc.); default no-op."""

    def crash(self, node_id: Hashable) -> None:
        """Crash one server node."""
        self._server(node_id).crash()

    def recover(self, node_id: Hashable) -> None:
        """Recover a crashed server node."""
        self._server(node_id).recover()

    def _server(self, node_id: Hashable):
        node = self.network.node(node_id)
        if node is None or node_id not in self.server_ids():
            raise KeyError(node_id)
        return node


def mapped_future(sim: Simulator, inner: Future, fn: Callable[[Any], Any]) -> Future:
    """A future resolving with ``fn(inner.value)`` (errors pass through)."""
    outer = Future(sim)

    def done(future: Future) -> None:
        if future.error is not None:
            outer.fail(future.error)
        else:
            outer.resolve(fn(future.value))

    inner.add_callback(done)
    return outer


def resolved(sim: Simulator, value: Any = None,
             error: BaseException | None = None) -> Future:
    """An already-completed future (for direct-attach stores like
    Bayou whose operations are synchronous local calls)."""
    future = Future(sim)
    if error is not None:
        future.fail(error)
    else:
        future.resolve(value)
    return future
