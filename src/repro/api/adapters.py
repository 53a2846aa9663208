"""One :class:`~repro.api.store.ConsistentStore` adapter per mechanism.

Each adapter normalizes a protocol's native client surface
(``DynamoClient.put/get``, ``TimelineClient.write/read_any/…``,
``BayouReplica.write/read_tentative``, …) to the uniform session
contract: ``put -> Future[token]``, ``get -> Future[(value, token)]``,
where a *token* is the protocol's version metadata, totally ordered
within a key (the driver densifies tokens into checkable versions).

Registered names
----------------
``primary_backup``, ``quorum``, ``quorum_siblings``, ``causal``,
``timeline``, ``bayou``, ``chain``, ``multipaxos``, ``pileus``.
"""

from __future__ import annotations

from typing import Any, Hashable

from ..client import timeline_session
from ..rpc import RetryPolicy
from ..replication import (
    BayouCluster,
    CausalCluster,
    ChainCluster,
    DynamoCluster,
    MultiPaxosCluster,
    PrimaryBackupCluster,
    SiblingDynamoCluster,
    TimelineCluster,
)
from ..placement import Placement
from ..sim import Network, Simulator
from ..sla import SHOPPING_CART, SLA, SLAClient
from . import registry
from .store import (
    READ_PREFERENCES,
    ConsistentStore,
    FnSession,
    StoreCapabilities,
    StoreSession,
    mapped_future,
    resolved,
)


def _norm_versioned(pair):
    """(value, int-version) -> (value, token) with 0 meaning 'nothing'."""
    value, version = pair
    return value, (version or None)


def _session_region(store, opts: dict):
    """Pop and validate the region contract — ``read_preference=`` and
    ``region=`` — out of a session's ``opts``.

    Returns ``(None, None)`` for region-blind sessions.  Otherwise the
    store must be networked (a direct-attach session has no client node
    to place) and built with ``placement=``, and the preference must be
    declared in its capabilities; ``region`` falls back to the
    placement's ``default_region``."""
    read_preference = opts.pop("read_preference", None)
    region = opts.pop("region", None)
    if read_preference is None and region is None:
        return None, None
    placement = store.placement
    if placement is None or not store.capabilities.networked:
        raise ValueError(
            f"{store.capabilities.name}: read_preference=/region= need a "
            "networked store built with placement="
        )
    supported = store.capabilities.read_preferences
    if read_preference is not None and read_preference not in supported:
        raise ValueError(
            f"{store.capabilities.name} does not support read preference "
            f"{read_preference!r}; have {supported or '()'}"
        )
    region = region if region is not None else placement.default_region
    if region is None:
        raise ValueError(
            "session needs region= (placement has no default_region)"
        )
    if region not in placement.region_names:
        raise ValueError(f"unknown region {region!r}")
    return read_preference, region


class ClusterStore(ConsistentStore):
    """A store over one cluster object from :mod:`repro.replication`.

    Subclasses name the cluster class and where it keeps its server
    nodes; construction (cluster, region spread, capacity knobs) and
    the fault-injection / convergence surface are the same for all.
    """

    #: The :mod:`repro.replication` class built as ``self.cluster``.
    cluster_class: type
    #: Attribute of the cluster holding its server nodes, in id order.
    servers_attr = "replicas"

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        nodes: int = 3,
        node_ids: list[Hashable] | None = None,
        service_time: float = 0.0,
        queue_limit: int | None = None,
        admission_rate: float | None = None,
        admission_burst: float | None = None,
        retry: RetryPolicy | None = None,
        placement: Placement | None = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(sim, network)
        self.retry = retry
        self.placement = placement
        self.cluster = self._build_cluster(
            nodes=nodes, node_ids=node_ids, **kwargs
        )
        if placement is not None:
            # Region-spread any server nodes no one placed yet: the
            # sharded router pre-places each shard's replicas with a
            # per-shard stagger before building the cluster; a
            # standalone store built directly with ``placement=`` gets
            # the default round-robin spread here instead.
            unplaced = [
                n for n in self.server_ids() if not placement.is_placed(n)
            ]
            if unplaced:
                placement.spread(unplaced)
        # Capacity/overload knobs (see :class:`repro.replication.common
        # .ServerNode` for semantics).
        for node in self._servers():
            if service_time > 0:
                node.service_time = service_time
            if queue_limit is not None:
                node.queue_limit = queue_limit
            if admission_rate is not None:
                node.admission_rate = admission_rate
            if admission_burst is not None:
                node.admission_burst = admission_burst

    def _build_cluster(self, **spec: Any):
        return self.cluster_class(self.sim, self.network, **spec)

    def _servers(self) -> list:
        return getattr(self.cluster, self.servers_attr)

    def _near(self, read_preference, region, candidates) -> Hashable:
        """The one locality rule, over candidate node ids:
        ``local_follower`` takes the first candidate in ``region``;
        with none there — and for ``nearest`` — the candidate cheapest
        to reach from it."""
        if read_preference == "local_follower":
            locals_ = self.placement.nodes_in(region, within=candidates)
            if locals_:
                return locals_[0]
        return self.placement.locality(region).nearest(candidates)

    def _open(self, name, retry: RetryPolicy | None, opts: dict,
              pin: str | None = None, candidates=()):
        """One session's protocol client — what every networked
        adapter's ``session()`` starts with; returns ``(client,
        read_preference, region)``.

        Resolves the region contract in ``opts``
        (:func:`_session_region`); under the follower and nearest
        preferences defaults the connect option ``pin`` (a coordinator,
        a home replica) to the :meth:`_near` one of ``candidates``;
        connects with the effective :class:`RetryPolicy` (the
        session-level override wins over the store-wide default); and
        places the client node in its region."""
        read_preference, region = _session_region(self, opts)
        local = read_preference in ("local_follower", "nearest")
        if pin is not None and local:
            opts.setdefault(
                pin, self._near(read_preference, region, candidates)
            )
        client = self.cluster.connect(session=name, **opts)
        policy = retry if retry is not None else self.retry
        if policy is not None:
            client.retry = policy
        if region is not None:
            self.placement.place(client.node_id, region)
            if local:
                # The locality view makes :meth:`ClientNode.call` order
                # endpoints nearest-first.  ``primary`` deliberately
                # gets none: the authoritative replica must stay first
                # in failover lists even when it is the remote endpoint.
                client.locality = self.placement.locality(region)
        return client, read_preference, region

    def _versioned(self, read):
        """A read fn over a client call resolving ``(value, version)``,
        normalized to ``(value, token)``."""
        return lambda k, t: mapped_future(
            self.sim, read(k, timeout=t), _norm_versioned
        )

    def server_ids(self) -> list[Hashable]:
        return [server.node_id for server in self._servers()]

    def snapshots(self) -> list[dict]:
        return [server.snapshot() for server in self._servers()]

    def settle(self) -> None:
        self.cluster.anti_entropy_sweep()


# ---------------------------------------------------------------------------
# Dynamo-style quorums (LWW stamps, or DVV siblings)
# ---------------------------------------------------------------------------


@registry.register(StoreCapabilities(
    name="quorum",
    description="Dynamo partial quorums, LWW, read repair, sloppy option",
    read_modes=("quorum",),
    failover_reads=True,
    failover_writes=True,
    read_preferences=READ_PREFERENCES,
))
class QuorumStore(ClusterStore):
    cluster_class = DynamoCluster
    servers_attr = "nodes"

    def session(
        self,
        name: Hashable | None = None,
        retry: RetryPolicy | None = None,
        **opts: Any,
    ) -> StoreSession:
        # Quorum reads still touch R replicas wherever they live; what
        # locality buys is a same-region *coordinator*, so the
        # client<->coordinator hop stays off the WAN.
        client, read_preference, region = self._open(
            name, retry, opts, pin="coordinator",
            candidates=self.cluster.ring.nodes,
        )
        put_fn, get_fn = self._token_fns(client)
        return FnSession(
            client.session,
            put_fn=put_fn,
            read_fns={"quorum": get_fn},
            default_mode="quorum",
            client_id=client.node_id,
            client=client,
            read_preference=read_preference,
            region=region,
        )

    def _token_fns(self, client):
        """``(put_fn, get_fn)`` resolving with version tokens: Lamport
        stamps are totally ordered within a key as they are."""
        return (
            lambda k, v, t: client.put(k, v, timeout=t),
            lambda k, t: client.get(k, timeout=t),
        )


def _context_token(context: dict):
    """A total order over DVV contexts compatible with causality:
    (vector sum, canonicalized entries) — concurrent contexts tie-break
    deterministically."""
    if not context:
        return None
    return (
        sum(context.values()),
        tuple(sorted((str(node), counter) for node, counter in context.items())),
    )


@registry.register(StoreCapabilities(
    name="quorum_siblings",
    description="partial quorums keeping concurrent siblings (DVV contexts)",
    read_modes=("quorum",),
    multi_value_reads=True,
    failover_reads=True,
    failover_writes=True,
))
class SiblingQuorumStore(QuorumStore):
    cluster_class = SiblingDynamoCluster

    def _token_fns(self, client):
        put_fn, get_fn = super()._token_fns(client)
        return (
            lambda k, v, t: mapped_future(
                self.sim, put_fn(k, v, t), _context_token
            ),
            lambda k, t: mapped_future(
                self.sim, get_fn(k, t),
                lambda reply: (tuple(reply[0]), _context_token(reply[1])),
            ),
        )


# ---------------------------------------------------------------------------
# COPS-style causal store
# ---------------------------------------------------------------------------


@registry.register(StoreCapabilities(
    name="causal",
    description="COPS-style causal broadcast KV; local reads/writes",
    read_modes=("local",),
    session_guarantees=("ryw", "mr", "mw", "wfr"),
    failover_reads=True,
    failover_writes=True,
))
class CausalStore(ClusterStore):
    cluster_class = CausalCluster
    #: Round-robin cursor for sessions opened without ``home=``.
    _next_home = 0

    def session(
        self,
        name: Hashable | None = None,
        home: Hashable | None = None,
        retry: RetryPolicy | None = None,
        **opts: Any,
    ) -> StoreSession:
        if home is None:
            ids = self.cluster.node_ids
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


# ---------------------------------------------------------------------------
# PNUTS-style record timelines
# ---------------------------------------------------------------------------


@registry.register(StoreCapabilities(
    name="timeline",
    description="PNUTS per-record mastership; any/critical/latest reads",
    read_modes=("any", "critical", "latest"),
    session_guarantees=("ryw", "mr", "mw", "wfr"),
    failover_reads=True,
    read_preferences=READ_PREFERENCES,
))
class TimelineStore(ClusterStore):
    cluster_class = TimelineCluster

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        placement: Placement | None = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(sim, network, placement=placement, **kwargs)
        if placement is not None:
            # The write-forwarding proxy is an extra network node; it
            # lives with the first replica so forwarded writes pay one
            # WAN hop, not a mystery-region hop.
            placement.place(
                self.cluster._forwarder.node_id,
                placement.region_of(self.cluster.node_ids[0]),
            )

    def session(
        self,
        name: Hashable | None = None,
        guarantees: tuple[str, ...] | None = None,
        retry_delay: float = 10.0,
        spread_replicas: bool = False,
        retry: RetryPolicy | None = None,
        **opts: Any,
    ) -> StoreSession:
        client, read_preference, region = self._open(
            name, retry, opts, pin="home", candidates=self.cluster.node_ids,
        )
        # Authoritative reads: the record master, wherever it is.
        default_mode = "latest" if read_preference == "primary" else "any"
        put_fn = lambda k, v, t: client.write(k, v, timeout=t)
        read_any = client.read_any
        wrapped = None
        if guarantees is not None:
            wrapped = timeline_session(
                client, guarantees=guarantees, retry_delay=retry_delay,
                spread_replicas=spread_replicas,
            )
            put_fn = lambda k, v, t: wrapped.write(k, v)
            read_any = lambda k, timeout: wrapped.read(k)
        session = FnSession(
            client.session,
            put_fn=put_fn,
            read_fns={
                "any": self._versioned(read_any),
                "critical": self._versioned(client.read_critical),
                "latest": self._versioned(client.read_latest),
            },
            default_mode=default_mode,
            client_id=client.node_id,
            client=client,
            read_preference=read_preference,
            region=region,
        )
        if wrapped is not None:
            session.session_client = wrapped
        return session


# ---------------------------------------------------------------------------
# Bayou tentative/committed replication
# ---------------------------------------------------------------------------


@registry.register(StoreCapabilities(
    name="bayou",
    description="Bayou tentative/committed writes, primary commit order",
    read_modes=("tentative", "committed"),
    tentative_reads=True,
    networked=False,
    retry_safe_writes=False,
))
class BayouStore(ClusterStore):
    """Direct-attach replicas: there is no service queue and no RPC
    path, so the capacity and ``retry`` knobs every adapter accepts
    have nothing to act on here."""

    cluster_class = BayouCluster
    #: Round-robin cursor for sessions opened without ``replica=``.
    _next_replica = 0
    _sessions = 0

    def __init__(
        self, sim: Simulator, network: Network, nodes: int = 4,
        **kwargs: Any,
    ) -> None:
        super().__init__(sim, network, nodes=nodes, **kwargs)

    def session(
        self,
        name: Hashable | None = None,
        replica: Hashable | None = None,
        retry: RetryPolicy | None = None,  # noqa: ARG002 - no RPC path
        **opts: Any,
    ) -> StoreSession:
        _session_region(self, opts)     # direct-attach: rejects both
        if replica is None:
            index = self._next_replica % len(self.cluster.replicas)
            self._next_replica += 1
            node = self.cluster.replicas[index]
        else:
            node = next(
                r for r in self.cluster.replicas if r.node_id == replica
            )
        self._sessions += 1
        name = name if name is not None else f"bayou-session-{self._sessions}"
        sim = self.sim

        def put_fn(key, value, _timeout):
            record = node.write(key, value)
            return resolved(sim, record.stamp)

        return FnSession(
            name,
            put_fn=put_fn,
            read_fns={
                "tentative": lambda k, t: resolved(
                    sim, (node.read_tentative(k), None)
                ),
                "committed": lambda k, t: resolved(
                    sim, (node.read_committed(k), None)
                ),
            },
            default_mode="tentative",
            client_id=node.node_id,
            client=node,
        )

    def settle(self) -> None:
        """Instantaneous pairwise anti-entropy, twice: once to flood
        writes to the primary, once to flood commit orders back."""
        for _round in range(2):
            for source in self.cluster.replicas:
                write_set = source._write_set(reply_expected=False)
                for target in self.cluster.replicas:
                    if target is not source:
                        target.handle_WriteSet(source.node_id, write_set)


# ---------------------------------------------------------------------------
# Primary–backup
# ---------------------------------------------------------------------------


@registry.register(StoreCapabilities(
    name="primary_backup",
    description="single primary, async/sync/quorum backup acks",
    read_modes=("primary", "backup"),
    failover_reads=True,
    # Linearizable only while every op funnels through the one
    # primary: holds for single-attempt primary reads, not for reads
    # that failed over to a possibly-stale backup.
    linearizable_read_modes=("primary",),
    read_preferences=READ_PREFERENCES,
))
class PrimaryBackupStore(ClusterStore):
    def _build_cluster(self, nodes: int, **spec: Any):
        return PrimaryBackupCluster(self.sim, self.network, n=nodes, **spec)

    def session(
        self,
        name: Hashable | None = None,
        retry: RetryPolicy | None = None,
        **opts: Any,
    ) -> StoreSession:
        client, read_preference, region = self._open(name, retry, opts)
        default_mode = "primary"

        if read_preference in ("local_follower", "nearest"):
            default_mode = "backup"

            def backup():
                # Re-resolved per read so a promotion (region failover)
                # re-routes follower reads without reopening sessions.
                return self.cluster.replica(self._near(
                    read_preference, region, self.server_ids()
                ))
        else:
            def backup():
                backups = self.cluster.backups
                return backups[0] if backups else self.cluster.primary

        read_backup = self._versioned(
            lambda k, timeout: client.get(k, replica=backup(), timeout=timeout)
        )

        return FnSession(
            client.session,
            put_fn=lambda k, v, t: client.put(k, v, timeout=t),
            read_fns={
                "primary": self._versioned(client.get),
                "backup": read_backup,
            },
            default_mode=default_mode,
            client_id=client.node_id,
            client=client,
            read_preference=read_preference,
            region=region,
        )


# ---------------------------------------------------------------------------
# Chain replication
# ---------------------------------------------------------------------------


@registry.register(StoreCapabilities(
    name="chain",
    description="chain replication: writes at head, linearizable tail reads",
    read_modes=("tail",),
    survives_replica_crash=False,
    linearizable_read_modes=("tail",),
))
class ChainStore(ClusterStore):
    cluster_class = ChainCluster

    def session(
        self,
        name: Hashable | None = None,
        retry: RetryPolicy | None = None,
        **opts: Any,
    ) -> StoreSession:
        client, _pref, region = self._open(name, retry, opts)
        return FnSession(
            client.session,
            put_fn=lambda k, v, t: client.put(k, v, timeout=t),
            read_fns={"tail": self._versioned(client.get)},
            default_mode="tail",
            client_id=client.node_id,
            client=client,
            region=region,
        )


# ---------------------------------------------------------------------------
# Multi-Paxos
# ---------------------------------------------------------------------------


@registry.register(StoreCapabilities(
    name="multipaxos",
    description="consensus-replicated KV log; linearizable log reads",
    read_modes=("log", "local"),
    linearizable_read_modes=("log",),
))
class MultiPaxosStore(ClusterStore):
    """Builds the group *and runs the leader election to completion*
    (``sim.run()``) so sessions are immediately usable — build stores
    before spawning workload processes."""

    cluster_class = MultiPaxosCluster

    def __init__(
        self, sim: Simulator, network: Network, elect: bool = True,
        **kwargs: Any,
    ) -> None:
        super().__init__(sim, network, **kwargs)
        if elect:
            self.cluster.elect()
            sim.run()

    def session(
        self,
        name: Hashable | None = None,
        retry: RetryPolicy | None = None,
        **opts: Any,
    ) -> StoreSession:
        client, _pref, region = self._open(name, retry, opts)
        return FnSession(
            client.session,
            put_fn=lambda k, v, t: client.put(k, v, timeout=t),
            read_fns={
                "log": self._versioned(client.get),
                "local": self._versioned(client.local_get),
            },
            default_mode="log",
            client_id=client.node_id,
            client=client,
            region=region,
        )

    def settle(self) -> None:
        self.cluster.catch_up()


# ---------------------------------------------------------------------------
# Pileus consistency SLAs (over a timeline cluster)
# ---------------------------------------------------------------------------


class FixedTargetSLAClient(SLAClient):
    """An SLA client pinned to one replica — the fixed-strategy
    baseline Pileus is compared against in E7."""

    def __init__(self, client, target: Hashable, monitor=None) -> None:
        super().__init__(client, monitor)
        self._target = target

    def select_target(self, key, sla):
        return self._target, 0


@registry.register(StoreCapabilities(
    name="pileus",
    description="per-read consistency SLAs over a timeline store",
    read_modes=("sla",),
    session_guarantees=("ryw", "mr"),
    chaos_waivers=(
        ("ryw", "SLA reads degrade to the eventual subclause by design "
         "when stronger targets are partitioned away, so read-my-writes "
         "is best-effort under faults (Pileus trades it for latency)"),
        ("mr", "same SLA degradation: a read served by a laggard "
         "replica after the preferred target drops out may move the "
         "session backwards"),
    ),
))
class PileusStore(TimelineStore):
    def session(
        self,
        name: Hashable | None = None,
        sla: SLA = SHOPPING_CART,
        target: Hashable | None = None,
        retry: RetryPolicy | None = None,
        **opts: Any,
    ) -> StoreSession:
        client, _pref, region = self._open(name, retry, opts)
        if target is not None:
            sla_client = FixedTargetSLAClient(client, target)
        else:
            sla_client = SLAClient(client)
        if region is not None:
            # Per-tenant region origin: the session's client node lives
            # in its region and the monitor starts from the *real* WAN
            # round trips instead of the flat default, so sub-SLA
            # selection reflects geography from the first read.
            for node_id in self.cluster.node_ids:
                sla_client.monitor.latency[node_id] = 2 * self.placement.delay(
                    region, self.placement.region_of(node_id)
                )

        session = FnSession(
            client.session,
            put_fn=lambda k, v, t: sla_client.write(k, v, timeout=t),
            read_fns={
                "sla": lambda k, t: mapped_future(
                    self.sim,
                    sla_client.read(k, sla, timeout=t),
                    lambda outcome: (outcome.value, outcome.version or None),
                ),
            },
            default_mode="sla",
            client_id=client.node_id,
            client=client,
            region=region,
        )
        session.sla_client = sla_client
        return session


# Importing the cache tier registers the "cached" wrapper adapter —
# last, so it can wrap any of the protocols registered above.
from .. import cache as _cache  # noqa: E402,F401
