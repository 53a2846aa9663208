"""Key-range sharding over independent replicated stores.

Replication answers durability and read latency; it does nothing for
write throughput — every replica still applies every write.  The
standard fix is orthogonal: partition the keyspace over N independent
replica groups ("shards"), each running its own instance of *any*
replication protocol.  :class:`ShardedStore` is that router, built
from two existing pieces:

* the :class:`~repro.replication.HashRing` (one vnode-weighted entry
  per shard) decides ownership, and
* the :mod:`repro.api` registry builds one store per shard, so the
  same router shards Dynamo quorums, Paxos groups, or chains without
  caring which.

The router is itself a :class:`~repro.api.ConsistentStore`, so the
workload driver, the checkers, and the conformance suite run against a
sharded store exactly as against a single cluster.  Routing metrics
publish under ``shard.*`` in ``sim.metrics``.

Elasticity (ISSUE 7): the topology is *live*.  :meth:`ShardedStore
.add_shard` builds a new per-shard cluster mid-run and streams the
key ranges that change ownership from their donors through a
:class:`~repro.sharding.handoff.RingMove`; :meth:`decommission_shard`
runs the reverse drain; :meth:`resize` chains moves to a target count.
Routing is epoch-aware: ``ring_epoch`` bumps on every per-range flip
and every ring membership change, and sessions revalidate their cached
per-shard sub-sessions against it — a decommissioned shard's sessions
die with its cluster instead of silently routing to a corpse.

Capacity note: with :attr:`ServerNode.service_time
<repro.replication.common.ServerNode.service_time>` set, each shard's
nodes saturate independently — which is what makes throughput scale
with shard count (benchmarks/test_e13_sharding.py measures it).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Hashable

from ..api import registry
from ..api.store import ConsistentStore, StoreSession, resolved
from ..errors import OverloadedError, SimulationError
from ..replication import HashRing
from ..sim import Future, Network, Simulator, spawn
from .handoff import DRAIN, JOIN, RingMove


class ShardedSession(StoreSession):
    """Routes each op to the owning shard's session (created lazily).

    Cached sub-sessions are revalidated against the store's
    ``ring_epoch``: any entry whose shard cluster was replaced or
    decommissioned is dropped, so a ring change can never route an op
    through a session bound to a retired cluster.
    """

    def __init__(self, store: "ShardedStore", name: Hashable,
                 session_opts: dict) -> None:
        self.name = name
        self.client_id = None
        self.read_preference = session_opts.get("read_preference")
        self.region = session_opts.get("region")
        self._store = store
        self._opts = session_opts
        self._epoch = store.ring_epoch
        # shard id -> (session, the cluster it was opened against)
        self._sub: dict[Hashable, tuple[StoreSession, Any]] = {}

    def _session_for(self, key: Hashable) -> StoreSession:
        store = self._store
        if self._epoch != store.ring_epoch:
            for shard_id, (_session, cluster) in list(self._sub.items()):
                if store.shards.get(shard_id) is not cluster:
                    del self._sub[shard_id]
            self._epoch = store.ring_epoch
        shard_id = store.shard_of(key)
        entry = self._sub.get(shard_id)
        if entry is None:
            opts = dict(self._opts)
            if store.spec.capabilities.networked:
                # Per-shard clusters number their clients independently;
                # on a shared network the ids would collide, so the
                # router hands out globally unique ones.
                store._clients += 1
                opts.setdefault(
                    "client_id", f"{shard_id}-client{store._clients}"
                )
            cluster = store.shards[shard_id]
            session = cluster.session(f"{self.name}@{shard_id}", **opts)
            self._sub[shard_id] = (session, cluster)
        else:
            session = entry[0]
        store._ops_routed.inc()
        store._count_route(shard_id)
        return session

    def put(self, key, value, timeout=None):
        retry_after = self._store.write_blocked(key)
        if retry_after is not None:
            return resolved(self._store.sim, error=OverloadedError(
                f"key {key!r} is mid-handoff", retry_after=retry_after,
            ))
        return self._session_for(key).put(key, value, timeout=timeout)

    def get(self, key, mode=None, timeout=None):
        return self._session_for(key).get(key, mode=mode, timeout=timeout)


class ShardedStore(ConsistentStore):
    """N independent per-shard clusters behind one store surface.

    ::

        store = ShardedStore(sim, net, protocol="quorum", shards=4,
                             nodes_per_shard=3, n=3, r=2, w=2)
        session = store.session("alice")
        session.put("user1", "x")       # routed by ring ownership
        move = store.add_shard()        # live scale-out; move.done is
        sim.run()                       # resolved when routing settled

    ``protocol`` is any registry name; extra kwargs go to every
    per-shard cluster.  Shard ``i``'s nodes are named
    ``shard{i}-n{j}`` so a sharded deployment stays inspectable in
    traces and fault injection.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        protocol: str = "quorum",
        shards: int = 2,
        nodes_per_shard: int = 3,
        vnodes: int = 64,
        service_time: float = 0.0,
        placement: Any = None,
        **cluster_kwargs: Any,
    ) -> None:
        super().__init__(sim, network)
        if shards < 1:
            raise ValueError("need at least one shard")
        spec = registry.get(protocol)
        self.protocol = protocol
        self.spec = spec
        self.vnodes = vnodes
        self._nodes_per_shard = nodes_per_shard
        self._service_time = service_time
        self.placement = placement
        self._cluster_kwargs = dict(cluster_kwargs)
        self.shard_ids = [f"shard{i}" for i in range(shards)]
        self._next_shard = shards
        self.ring = HashRing(self.shard_ids, vnodes=vnodes)
        #: Bumped on every routing change a session could have cached
        #: across: per-range flips and ring membership changes.
        self.ring_epoch = 0
        #: Clusters built so far — the per-shard placement stagger, so
        #: shard i's first replica lands in region i % len(regions)
        #: instead of every shard leading from the same region.
        self._built = 0
        self.shards: dict[Hashable, ConsistentStore] = {}
        for shard_id in self.shard_ids:
            self.shards[shard_id] = self._build_cluster(shard_id)
        self._move: RingMove | None = None
        #: Optional :class:`repro.membership.MembershipService` kept in
        #: sync with ring moves (see :meth:`attach_membership`).
        self.membership: Any = None
        # Everything the wrapped adapter declares carries through; only
        # what the routing tier changes is named.
        self.capabilities = replace(
            spec.capabilities,
            name=f"sharded[{protocol}x{shards}]",
            description=f"{shards}-shard router over {protocol}",
            session_guarantees=(),
            linearizable_read_modes=(),
            elastic=True,
            read_preferences=(
                spec.capabilities.read_preferences
                if placement is not None else ()
            ),
        )
        metrics = sim.metrics
        self._ops_routed = metrics.counter("shard.ops_routed")
        self._per_shard_ops = {
            shard_id: metrics.counter(f"shard.{shard_id}.ops")
            for shard_id in self.shard_ids
        }
        self._g_shards = metrics.gauge("shard.count")
        self._g_shards.set(shards)
        self._g_ring_version = metrics.gauge("ring.version")
        self._sessions = 0
        self._clients = 0

    def _build_cluster(self, shard_id: Hashable) -> ConsistentStore:
        node_ids = [
            f"{shard_id}-n{j}" for j in range(self._nodes_per_shard)
        ]
        kwargs = dict(self._cluster_kwargs)
        if self.placement is not None:
            # Pre-place this shard's replicas with a per-shard stagger
            # (every region leads some shards), then hand the placement
            # down so the per-shard adapter wires follower reads.
            self.placement.spread(node_ids, start=self._built)
            kwargs["placement"] = self.placement
        self._built += 1
        return self.spec.build(
            self.sim, self.network, nodes=self._nodes_per_shard,
            node_ids=node_ids, service_time=self._service_time,
            **kwargs,
        )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def shard_of(self, key: Hashable) -> Hashable:
        """The shard owning ``key``: the ring coordinator, overridden
        per range while a ring move is in flight."""
        move = self._move
        if move is not None:
            route = move.route(key)
            if route is not None:
                return route
        return self.ring.coordinator(key)

    def write_blocked(self, key: Hashable) -> float | None:
        """``retry_after`` (ms) when ``key`` is in a range mid-cutover,
        else None.  Reads are never blocked."""
        move = self._move
        if move is None:
            return None
        return move.write_blocked(key)

    def _count_route(self, shard_id: Hashable) -> None:
        counter = self._per_shard_ops.get(shard_id)
        if counter is None:
            counter = self.sim.metrics.counter(f"shard.{shard_id}.ops")
            self._per_shard_ops[shard_id] = counter
        counter.inc()

    def session(self, name: Hashable | None = None, **opts: Any) -> StoreSession:
        self._sessions += 1
        name = name if name is not None else f"sharded-{self._sessions}"
        return ShardedSession(self, name, opts)

    def _direct_session(self, shard_id: Hashable, label: str) -> StoreSession:
        """A session pinned to one shard cluster, bypassing routing
        (the handoff data path)."""
        opts: dict[str, Any] = {}
        if self.spec.capabilities.networked:
            self._clients += 1
            opts["client_id"] = f"{shard_id}-{label}{self._clients}"
        return self.shards[shard_id].session(f"{label}@{shard_id}", **opts)

    def _shard_keys(self, shard_id: Hashable) -> list:
        """Keys any replica of ``shard_id`` currently stores (the
        handoff's transfer work-list)."""
        keys: set = set()
        for snapshot in self.shards[shard_id].snapshots():
            keys.update(snapshot)
        return sorted(keys, key=repr)

    # ------------------------------------------------------------------
    # Elasticity
    # ------------------------------------------------------------------
    @property
    def rebalancing(self) -> bool:
        """A ring move is in flight (or parked after a failure)."""
        return self._move is not None

    def add_shard(
        self, shard_id: Hashable | None = None, **move_opts: Any
    ) -> RingMove:
        """Scale out: build a fresh cluster and stream the ranges it
        now owns from their donor shards.  Returns the in-flight
        :class:`~repro.sharding.handoff.RingMove`; routing flips
        per-range as transfers complete and the ring itself is updated
        when ``move.done`` resolves."""
        if self._move is not None:
            raise SimulationError(
                "a ring move is already in flight; one move at a time"
            )
        if shard_id is None:
            shard_id = f"shard{self._next_shard}"
            self._next_shard += 1
        if shard_id in self.shards:
            raise ValueError(f"shard {shard_id!r} already exists")
        self.shards[shard_id] = self._build_cluster(shard_id)
        self.shard_ids.append(shard_id)
        self._g_shards.set(len(self.shards))
        if self.membership is not None:
            for node_id in self.shards[shard_id].server_ids():
                self.membership.add_node(self.network.node(node_id))
        self.sim.annotate("ring", action="add_shard", shard=shard_id)
        move = RingMove(self, JOIN, shard_id, **move_opts)
        self._move = move
        move.start()
        return move

    def decommission_shard(
        self, shard_id: Hashable | None = None, **move_opts: Any
    ) -> RingMove:
        """Scale in: drain ``shard_id`` (default: the newest shard) to
        the shards inheriting its ranges, then retire its cluster."""
        if self._move is not None:
            raise SimulationError(
                "a ring move is already in flight; one move at a time"
            )
        if shard_id is None:
            shard_id = self.shard_ids[-1]
        if shard_id not in self.ring.nodes:
            raise ValueError(f"shard {shard_id!r} is not on the ring")
        if len(self.ring.nodes) <= 1:
            raise ValueError("cannot decommission the last shard")
        self.sim.annotate("ring", action="decommission_shard",
                          shard=shard_id)
        move = RingMove(self, DRAIN, shard_id, **move_opts)
        self._move = move
        move.start()
        return move

    def resize(self, shards: int, **move_opts: Any) -> Future:
        """Chain ring moves until the store has ``shards`` shards.
        Resolves with the final shard count."""
        if shards < 1:
            raise ValueError("need at least one shard")
        future = Future(self.sim, label=f"resize->{shards}")

        def script():
            try:
                while True:
                    if self._move is not None:
                        yield self._move.done
                    elif len(self.ring.nodes) < shards:
                        yield self.add_shard(**move_opts).done
                    elif len(self.ring.nodes) > shards:
                        yield self.decommission_shard(**move_opts).done
                    else:
                        break
                future.try_resolve(len(self.ring.nodes))
            except BaseException as exc:
                future.try_fail(exc)
                raise

        spawn(self.sim, script(), name=f"resize->{shards}")
        return future

    def _on_range_flip(self, move: RingMove, counterpart: Hashable,
                       fingerprint: str, keys: int) -> None:
        """A range's transfer fingerprint was acked: routing flipped."""
        self.ring_epoch += 1
        self.sim.annotate(
            "handoff", phase="flip", move=move.kind, subject=move.subject,
            counterpart=counterpart, keys=keys, fingerprint=fingerprint,
        )

    def _finish_move(self, move: RingMove) -> None:
        """Every range flipped: commit the membership change."""
        if move.kind == JOIN:
            self.ring.add_node(move.subject)
        else:
            self.ring.remove_node(move.subject)
            cluster = self.shards.pop(move.subject)
            self.shard_ids.remove(move.subject)
            for node_id in cluster.server_ids():
                if self.membership is not None:
                    self.membership.forget(node_id)
                node = self.network.node(node_id)
                if node is not None and not node.crashed:
                    # The network has no deregister; a retired node is
                    # crashed so stray messages to it die on arrival.
                    node.crash()
        self.ring_epoch += 1
        self._move = None
        self._g_shards.set(len(self.shards))
        self._g_ring_version.set(self.ring.version)
        self.sim.annotate(
            "ring", action="committed", move=move.kind,
            shard=move.subject, version=self.ring.version,
            shards=len(self.shards),
        )

    def attach_membership(self, membership: Any) -> None:
        """Monitor every server node with ``membership`` and keep the
        overlay in sync across future ring moves."""
        self.membership = membership
        membership.watch(self)

    # ------------------------------------------------------------------
    # Store surface
    # ------------------------------------------------------------------
    def server_ids(self) -> list[Hashable]:
        return [
            node_id
            for shard_id in self.shard_ids
            for node_id in self.shards[shard_id].server_ids()
        ]

    def snapshots(self) -> list[dict]:
        """Ownership-filtered replica views, merged across shards.

        Replica ``i`` of the sharded store is the union of replica
        ``i``'s snapshot from every shard, restricted to the keys that
        shard currently owns — the restriction masks stale donor
        copies left behind by ring moves.  If every shard's replicas
        agree internally the merged views are identical, so the
        standard convergence checker works unchanged."""
        groups = []
        for shard_id in self.shard_ids:
            filtered = [
                {
                    key: value for key, value in snapshot.items()
                    if self.shard_of(key) == shard_id
                }
                for snapshot in self.shards[shard_id].snapshots()
            ]
            if filtered:
                groups.append(filtered)
        if not groups:
            return []
        width = max(len(group) for group in groups)
        merged: list[dict] = []
        for index in range(width):
            combined: dict = {}
            for group in groups:
                combined.update(group[index % len(group)])
            merged.append(combined)
        return merged

    def settle(self) -> None:
        for shard_id in self.shard_ids:
            self.shards[shard_id].settle()

    def routed_ops(self) -> dict[Hashable, int]:
        """Ops routed per *active* shard so far (load-balance check)."""
        return {
            shard_id: self._per_shard_ops[shard_id].value
            for shard_id in self.shard_ids
            if shard_id in self._per_shard_ops
        }
