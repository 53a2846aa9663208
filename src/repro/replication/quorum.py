"""Dynamo-style partial-quorum replication.

The tutorial's flagship eventually consistent store: N replicas per
key on a consistent hash ring, writes acknowledged after W replica
acks, reads after R replies, with

* **read repair** — a read that observes divergent replicas pushes the
  merged state back to the stale ones,
* **hinted handoff + sloppy quorum** — when a home replica is
  unreachable, the coordinator recruits the next node on the ring,
  which stores the write with a *hint* and forwards it when the home
  replica returns.

``R + W > N`` gives regular-register-like freshness in the failure-free
case; smaller quorums trade staleness for latency — exactly the PBS
trade-off E2 sweeps.

One engine, two conflict modes.  A key's state at a replica is a
join-semilattice either way, so storing a write, merging R replies,
read repair, hints and the anti-entropy sweep are all "merge what
arrived into what is held".  What differs is how a write is minted and
what the client sees, and that is the *conflict strategy* a cluster
class binds:

* :class:`LWWStamps` (:class:`DynamoCluster`) — one ``(value, stamp)``
  per key, arbitrated by per-coordinator Lamport stamps (total order ⇒
  the history checkers get dense per-key versions).  Use it when the
  application cannot merge.
* :class:`DottedSiblings` (:class:`SiblingDynamoCluster`) — the design
  the Dynamo paper shipped for carts: concurrent writes are *kept* as
  siblings, tracked by dotted version vectors, and returned together
  with a causal **context** the client echoes on its next write —
  which is how read-modify-write collapses siblings.

The "LWW loses writes / siblings keep them" ablation is measured in
``benchmarks/test_ablations.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable

from ..api import registry
from ..api.store import (
    READ_PREFERENCES,
    FnSession,
    StoreCapabilities,
    StoreSession,
    mapped_future,
)
from ..clocks import DottedValueSet, LamportClock, LamportStamp
from ..errors import QuorumError
from ..rpc import RetryPolicy
from ..sim import Future, Network, Simulator
from .common import GroupClient, ReplicaGroup, ServerNode
from .ring import HashRing

# ---------------------------------------------------------------------------
# Wire types
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class QPut:
    """Client → coordinator write.

    ``context`` is what the client has observed: under LWW the highest
    stamp of its session (the coordinator's Lamport clock observes it
    before stamping, so a client's successive writes are ordered even
    when coordinated by different nodes), under siblings the key's
    vector-clock entries from its last read or write (the new version
    supersedes exactly the siblings that context covers).
    """

    key: Hashable
    value: Any
    context: Any = None


@dataclass(slots=True)
class QGet:
    """Client → coordinator read."""

    key: Hashable


@dataclass(slots=True)
class StoreMsg:
    """Coordinator → replica: merge this state into yours.

    ``value``/``stamp`` are the strategy's wire encoding of a per-key
    state: the value and its Lamport stamp, or the sibling versions
    and their vector-clock entries.
    """

    op_id: int
    key: Hashable
    value: Any
    stamp: Any
    hint_for: Hashable | None = None   # sloppy-quorum hint


@dataclass(slots=True)
class StoreAck:
    op_id: int


@dataclass(slots=True)
class FetchMsg:
    op_id: int
    key: Hashable


@dataclass(slots=True)
class FetchReply:
    op_id: int
    key: Hashable
    value: Any
    stamp: Any


# ---------------------------------------------------------------------------
# Conflict strategies
# ---------------------------------------------------------------------------
#
# A strategy owns four things: minting a write at the coordinator
# (``mint``, ``witness``, ``mints_in_place``), the per-key state lattice
# (``EMPTY``, ``merge``, ``behind``), the wire form of a state
# (``encode``/``decode``), and what a client sees and remembers
# (``reply`` — a read resolves with the pair, a write with its context
# half — ``snapshot``, ``recall``/``learn``).
# The states themselves stay what the rest of the repo already uses:
# plain ``(value, LamportStamp)`` pairs and ``DottedValueSet``.  One
# instance exists per participant: a node's instance mints, a client's
# remembers what its session has seen.


class LWWStamps:
    """Last writer wins: one ``(value, stamp)`` pair per key."""

    #: Metric-name prefix.
    metrics = "quorum"
    #: A minted write is detached from the coordinator's own state and
    #: is stored there as at any other home replica: by ``_store``.
    mints_in_place = False
    EMPTY: tuple = (None, None)

    def __init__(self, owner: Hashable) -> None:
        self.clock = LamportClock(owner)
        #: Highest stamp this session has observed, across keys.
        self.seen: LamportStamp | None = None

    def mint(
        self, held: tuple, value: Any, context: LamportStamp | None
    ) -> tuple:
        if context is not None:
            self.clock.observe(context)
        return value, self.clock.tick()

    def witness(self, state: tuple) -> None:
        """Every state stored at this node advances its Lamport clock,
        so the next stamp minted here beats everything it holds."""
        self.clock.observe(state[1])

    @staticmethod
    def behind(held: tuple, other: tuple) -> bool:
        return other[1] is not None and (held[1] is None or held[1] < other[1])

    @staticmethod
    def merge(held: tuple, incoming: tuple) -> tuple:
        return incoming if LWWStamps.behind(held, incoming) else held

    @staticmethod
    def encode(state: tuple) -> tuple:
        """A state is its own wire form and its own ``(value, stamp)``
        reply."""
        return state

    reply = encode

    @staticmethod
    def decode(value: Any, stamp: LamportStamp | None) -> tuple:
        return value, stamp

    @staticmethod
    def snapshot(data: dict) -> dict:
        return {key: value for key, (value, _stamp) in data.items()}

    def recall(self, key: Hashable) -> LamportStamp | None:
        return self.seen

    def learn(self, key: Hashable, stamp: LamportStamp | None) -> None:
        if stamp is not None and (self.seen is None or self.seen < stamp):
            self.seen = stamp


class DottedSiblings:
    """Keep concurrent writes: one :class:`DottedValueSet` per key."""

    metrics = "sibling_quorum"
    #: The coordinator applies the write against its FULL local sibling
    #: set — not a detached delta — so the new dot is contiguous with
    #: this node's causal history.  (Minting dots from a bare counter
    #: would produce a clock that falsely "covers" this node's earlier
    #: dots and silently drop never-seen siblings.)  The resulting
    #: whole set is what replicates; sync makes that safe and
    #: idempotent.
    mints_in_place = True
    EMPTY = DottedValueSet()

    def __init__(self, owner: Hashable) -> None:
        self.owner = owner
        #: key -> clock entries of this session's last read or write.
        self.seen: dict[Hashable, dict] = {}

    def mint(
        self, held: DottedValueSet, value: Any, context: dict
    ) -> DottedValueSet:
        return held.put(self.owner, value, context)

    def witness(self, state: DottedValueSet) -> None:
        """Dots are minted against the key's own state; there is no
        node-wide clock to advance."""

    @staticmethod
    def behind(held: DottedValueSet, other: DottedValueSet) -> bool:
        """For ``other`` a merge that includes ``held``: equal clocks
        and equally many siblings mean equal sets."""
        return held.clock != other.clock or len(held.siblings) != len(
            other.siblings
        )

    merge = staticmethod(DottedValueSet.sync)

    @staticmethod
    def encode(state: DottedValueSet) -> tuple[tuple, dict]:
        """``(((dot, value), …), clock)``: one clock per key."""
        return tuple(state.siblings.items()), dict(state.clock)

    @staticmethod
    def decode(siblings: tuple, clock: dict) -> DottedValueSet:
        return DottedValueSet(dict(siblings), dict(clock))

    @staticmethod
    def reply(state: DottedValueSet) -> tuple[list, dict]:
        """``(sibling_values, context)``."""
        return state.values(), dict(state.clock)

    @staticmethod
    def snapshot(data: dict) -> dict:
        return {
            key: tuple(sorted(state.values(), key=repr))
            for key, state in data.items()
            if not state.is_empty()
        }

    def recall(self, key: Hashable) -> dict:
        return dict(self.seen.get(key, {}))

    def learn(self, key: Hashable, context: dict) -> None:
        self.seen[key] = dict(context)


# ---------------------------------------------------------------------------
# Replica node
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class _CoordinatorOp:
    kind: str
    key: Hashable
    future: Future
    needed: int
    targets: set
    state: Any = None                  # the minted write
    replies: list = field(default_factory=list)   # (src, state) per read reply
    responded: set = field(default_factory=set)
    deadlines: tuple = ()              # cancelled when the op is decided


class DynamoNode(ServerNode):
    """One storage node; every node can coordinate any request."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: Hashable,
        cluster: "DynamoCluster",
    ) -> None:
        super().__init__(sim, network, node_id)
        self.cluster = cluster
        self.conflicts = cluster.conflicts(node_id)
        self.data: dict[Hashable, Any] = {}
        # Hinted writes held for unreachable home replicas:
        # home node id -> {key: state}
        self.hints: dict[Hashable, dict[Hashable, Any]] = {}
        #: Undecided ops of this incarnation: gone at quorum, deadline or crash.
        self._ops: dict[int, _CoordinatorOp] = {}
        self._op_ids = 0
        if cluster.hint_interval is not None:
            self.every(cluster.hint_interval, self._push_hints, jitter=0.3)

    # -- local storage ----------------------------------------------------
    def local_read(self, key: Hashable) -> Any:
        """What a client reading only this replica would be told."""
        conflicts = self.conflicts
        return conflicts.reply(self.data.get(key, conflicts.EMPTY))

    def merge_in(self, slot: dict, key: Hashable, state: Any) -> None:
        """Merge ``state`` into what ``slot`` (the node's data or one
        home's hints) holds for ``key``."""
        conflicts = self.conflicts
        conflicts.witness(state)
        slot[key] = conflicts.merge(slot.get(key, conflicts.EMPTY), state)

    def snapshot(self) -> dict:
        return self.conflicts.snapshot(self.data)

    # -- client-facing coordination ----------------------------------------
    def _next_op(self) -> int:
        self._op_ids += 1
        return self._op_ids

    def serve_QPut(self, src: Hashable, payload: QPut) -> Future:
        cluster, conflicts, key = self.cluster, self.conflicts, payload.key
        state = conflicts.mint(
            self.data.get(key, conflicts.EMPTY), payload.value, payload.context
        )
        targets = cluster.ring.preference_list(key, cluster.n)
        op_id = self._next_op()
        future = Future(self.sim, label=("qput#{}", op_id))
        op = _CoordinatorOp(
            "write", key, future, cluster.w, set(targets), state
        )
        self._ops[op_id] = op
        store = StoreMsg(op_id, key, *conflicts.encode(state))
        if conflicts.mints_in_place:
            self.data[key] = state
        if self.node_id in op.targets:
            # A home coordinator stores its own copy first, in-process, and
            # counts the ack (an in-place mint holds the copy already).
            targets.remove(self.node_id)
            ack = StoreAck(op_id) if conflicts.mints_in_place else self._store(store)
            self.handle_StoreAck(self.node_id, ack)
        self.send_many(targets, store)
        if not future.done:  # W=1 at a home coordinator is decided already
            arm = self.set_deadline
            if cluster.sloppy:
                op.deadlines = (arm(cluster.replica_timeout, self._write_fallback, op_id),)
            op.deadlines += (arm(cluster.op_deadline, self._expire, op_id),)
        return future

    def serve_QGet(self, src: Hashable, payload: QGet) -> Future:
        cluster, key = self.cluster, payload.key
        targets = cluster.ring.preference_list(key, cluster.n)
        op_id = self._next_op()
        future = Future(self.sim, label=("qget#{}", op_id))
        op = _CoordinatorOp("read", key, future, cluster.r, set(targets))
        self._ops[op_id] = op
        fetch = FetchMsg(op_id, key)
        if self.node_id in op.targets:
            # A home coordinator answers itself first, in-process.
            targets.remove(self.node_id)
            self.handle_FetchReply(self.node_id, self._fetch(fetch))
        self.send_many(targets, fetch)
        if not future.done:  # R=1 at a home coordinator is decided already
            op.deadlines = (self.set_deadline(cluster.op_deadline, self._expire, op_id),)
        return future

    # -- replica side -----------------------------------------------------
    # A store or a fetch maps to the answer the replica owes; a handler
    # sends it, the coordinator's own share hands it to its own handler.
    def _store(self, msg: StoreMsg) -> StoreAck:
        if msg.hint_for is not None and msg.hint_for != self.node_id:
            # We are a stand-in: remember the hint for the home node.
            slot = self.hints.setdefault(msg.hint_for, {})
        else:
            slot = self.data
        self.merge_in(slot, msg.key, self.conflicts.decode(msg.value, msg.stamp))
        return StoreAck(msg.op_id)

    def _fetch(self, msg: FetchMsg) -> FetchReply:
        conflicts = self.conflicts
        held = self.data.get(msg.key, conflicts.EMPTY)
        return FetchReply(msg.op_id, msg.key, *conflicts.encode(held))

    def handle_StoreMsg(self, src: Hashable, msg: StoreMsg) -> None:
        self.send(src, self._store(msg))

    def handle_FetchMsg(self, src: Hashable, msg: FetchMsg) -> None:
        self.send(src, self._fetch(msg))

    # -- coordinator ack collection ------------------------------------------
    def _counted(
        self, src: Hashable, op_id: int, kind: str
    ) -> "_CoordinatorOp | None":
        """The pending op a replica's response counts toward.  Each
        replica counts once: a network-duplicated ack or reply must
        not fill a quorum that only fewer distinct replicas met."""
        op = self._ops.get(op_id)
        if op is None or op.kind != kind or src in op.responded:
            return None
        op.responded.add(src)
        return op

    def _retire(self, op_id: int, op: _CoordinatorOp) -> None:
        """Forget an op that met its quorum, and its timeouts with it:
        later acks and replies find no entry and count for nothing."""
        del self._ops[op_id]
        for deadline in op.deadlines:
            deadline.cancel()

    def handle_StoreAck(self, src: Hashable, msg: StoreAck) -> None:
        op = self._counted(src, msg.op_id, "write")
        if op is None:
            return
        if len(op.responded) >= op.needed:
            self._retire(msg.op_id, op)
            self._acknowledge(op)

    def _acknowledge(self, op: _CoordinatorOp) -> None:
        """Resolve a write with its context, for chaining writes."""
        op.future.resolve(self.conflicts.reply(op.state)[1])
        self.cluster._c_writes_succeeded.inc()

    def handle_FetchReply(self, src: Hashable, msg: FetchReply) -> None:
        op = self._counted(src, msg.op_id, "read")
        if op is None:
            return
        conflicts = self.conflicts
        op.replies.append((src, conflicts.decode(msg.value, msg.stamp)))
        if len(op.replies) >= op.needed:
            self._retire(msg.op_id, op)
            merged = conflicts.EMPTY
            for _src, state in op.replies:
                merged = conflicts.merge(merged, state)
            op.future.resolve(conflicts.reply(merged))
            if self.cluster.read_repair:
                self._read_repair(op, merged)

    def _read_repair(self, op: _CoordinatorOp, merged: Any) -> None:
        conflicts = self.conflicts
        # Acks for repairs are ignored: the op id is a fresh one.
        repair = StoreMsg(self._next_op(), op.key, *conflicts.encode(merged))
        for target, state in op.replies:
            if conflicts.behind(state, merged):
                if target == self.node_id:
                    self._store(repair)
                else:
                    self.send(target, repair)
                self.cluster._c_read_repairs.inc()
                self.sim.annotate("read_repair", key=op.key,
                                  coordinator=self.node_id, target=target)

    # -- sloppy quorum / hinted handoff ---------------------------------------
    def _write_fallback(self, op_id: int) -> None:
        op = self._ops.get(op_id)
        if op is None:
            return
        missing = op.targets - op.responded
        if not missing:
            return
        value, stamp = self.conflicts.encode(op.state)
        stand_ins = self.cluster.ring.fallbacks(op.key, exclude=op.targets)
        for home, stand_in in zip(sorted(missing, key=str), stand_ins):
            hint = StoreMsg(op_id, op.key, value, stamp, hint_for=home)
            if stand_in == self.node_id:  # a coordinator off the key's homes
                self.handle_StoreAck(stand_in, self._store(hint))
            else:
                self.send(stand_in, hint)
            self.cluster._c_hinted_writes.inc()
            self.sim.annotate("hinted_write", key=op.key, home=home,
                              stand_in=stand_in)

    def _push_hints(self) -> None:
        encode = self.conflicts.encode
        for home, entries in list(self.hints.items()):
            if not entries:
                del self.hints[home]
                continue
            for key, state in list(entries.items()):
                if self.network.reachable(self.node_id, home):
                    hint_id = self._next_op()
                    self.send(home, StoreMsg(hint_id, key, *encode(state)))
                    del entries[key]
                    self.cluster._c_hints_delivered.inc()

    # -- lifecycle ---------------------------------------------------------
    def on_crash(self) -> None:
        """The pending-op table is volatile (data and hints are not): a
        recovered node must not acknowledge, on an ack delayed past its
        restart, a request it coordinated before the crash."""
        self._ops.clear()

    def _expire(self, op_id: int) -> None:
        op = self._ops.pop(op_id, None)
        if op is None:
            return
        op.future.fail(
            QuorumError(
                f"{op.kind} quorum not met for {op.key!r} "
                f"({len(op.responded)}/{op.needed})"
            )
        )
        if op.kind == "write":
            self.cluster._c_writes_failed.inc()
        else:
            self.cluster._c_reads_failed.inc()


# ---------------------------------------------------------------------------
# Client + cluster
# ---------------------------------------------------------------------------


class DynamoClient(GroupClient):
    """Session-scoped client; remembers what its session has observed
    (the conflict strategy's context for its next write)."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: Hashable,
        cluster: "DynamoCluster",
        session: Hashable,
        coordinator: Hashable | None = None,
    ) -> None:
        super().__init__(sim, network, node_id, cluster, session)
        #: Pinned coordinator (e.g. the nearest node), overriding the
        #: cluster policy — how real deployments route via a local node.
        self.coordinator = coordinator
        self.conflicts = cluster.conflicts(node_id)

    def _coordinator_for(self, key: Hashable) -> Hashable:
        if self.coordinator is not None:
            return self.coordinator
        if self.cluster.coordinator_policy == "first":
            return self.cluster.ring.coordinator(key)
        nodes = self.cluster.ring.nodes
        return nodes[self.sim.rng.randrange(len(nodes))]

    def _endpoints(self, coordinator: Hashable) -> list:
        """Failover order: the chosen coordinator, then the rest of the
        ring — any node can coordinate a Dynamo operation."""
        return [coordinator] + [
            node for node in self.cluster.ring.nodes if node != coordinator
        ]

    # The completion callbacks below stay closures named ``done`` inside
    # ``put`` and ``get``: scheduled callbacks are traced by qualified
    # name, so those names are part of the pinned trace fingerprints.

    def put(
        self,
        key: Hashable,
        value: Any,
        timeout: float | None = None,
    ) -> Future:
        """Write under the context this session last observed for
        ``key`` (a read of siblings then a write resolves them);
        resolves with the write's context — its arbitration stamp, or
        the vector-clock entries that now cover it."""
        context = self.conflicts.recall(key)
        inner, outer, finish = self._operate(
            "write", key, QPut(key, value, context), timeout
        )

        def done(future: Future) -> None:
            finish(future)

        inner.add_callback(done)
        return outer

    def get(self, key: Hashable, timeout: float | None = None) -> Future:
        """Read; resolves with ``(value, stamp)``, or with
        ``(sibling_values, context)``."""
        inner, outer, finish = self._operate("read", key, QGet(key), timeout)

        def done(future: Future) -> None:
            finish(future)

        inner.add_callback(done)
        return outer

    def _operate(
        self, kind: str, key: Hashable, message: Any, timeout: float | None,
    ) -> tuple[Future, Future, Any]:
        """Send one operation; returns the RPC future, the future the
        caller gets, and the completion step linking the two."""
        cluster = self.cluster
        write = kind == "write"
        coordinator = self._coordinator_for(key)
        start = self.sim.now
        inner = self.call(
            self._endpoints(coordinator), message,
            timeout or cluster.client_timeout, idempotent=write,
        )
        outer = Future(self.sim, label=("d{}({!r})", kind, key))

        def finish(future: Future) -> None:
            if future.error is not None:
                outer.fail(future.error)
                return
            reply = future.value
            self.conflicts.learn(key, reply if write else reply[1])
            latency = cluster._lat_writes if write else cluster._lat_reads
            latency.record(self.sim.now - start)
            outer.resolve(reply)

        return inner, outer, finish


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
    name="quorum",
    description="Dynamo partial quorums, LWW, read repair, sloppy option",
    read_modes=("quorum",),
    failover_reads=True,
    failover_writes=True,
    read_preferences=READ_PREFERENCES,
))
class DynamoCluster(ReplicaGroup):
    """A partial-quorum store with last-writer-wins conflicts.

    Parameters mirror Dynamo's: ``n`` replicas per key, ``r``/``w``
    quorum sizes, ``sloppy`` quorums with hinted handoff, and
    ``read_repair``.
    """

    #: The conflict strategy: how writes are minted and merged.
    conflicts: type = LWWStamps
    replica_class = DynamoNode
    client_class = DynamoClient
    replica_prefix = "dyn"
    client_prefix = "dclient"

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        n: int = 3,
        r: int = 2,
        w: int = 2,
        sloppy: bool = False,
        read_repair: bool = True,
        replica_timeout: float = 25.0,
        op_deadline: float = 200.0,
        client_timeout: float = 400.0,
        hint_interval: float | None = 50.0,
        coordinator_policy: str = "first",
        **group: Any,
    ) -> None:
        if not 1 <= n:
            raise ValueError("n must be >= 1")
        if not 1 <= r <= n or not 1 <= w <= n:
            raise ValueError("need 1 <= r,w <= n")
        if coordinator_policy not in ("first", "random"):
            raise ValueError("coordinator_policy must be 'first' or 'random'")
        self.n, self.r, self.w = n, r, w
        self.sloppy = sloppy
        self.read_repair = read_repair
        self.replica_timeout = replica_timeout
        self.op_deadline = op_deadline
        self.client_timeout = client_timeout
        self.hint_interval = hint_interval
        self.coordinator_policy = coordinator_policy
        # Counters the experiments read — published into the sim-wide
        # metrics registry (two clusters on one sim share them).
        metrics, prefix = sim.metrics, self.conflicts.metrics
        self._c_read_repairs = metrics.counter(f"{prefix}.read_repairs")
        self._c_hinted_writes = metrics.counter(f"{prefix}.hinted_writes")
        self._c_hints_delivered = metrics.counter(f"{prefix}.hints_delivered")
        self._c_writes_succeeded = metrics.counter(
            f"{prefix}.writes_succeeded")
        self._c_writes_failed = metrics.counter(f"{prefix}.writes_failed")
        self._c_reads_failed = metrics.counter(f"{prefix}.reads_failed")
        self._lat_reads = metrics.latency(f"{prefix}.read_ms")
        self._lat_writes = metrics.latency(f"{prefix}.write_ms")
        super().__init__(sim, network, **group)
        if n > len(self.node_ids):
            raise ValueError("replication factor exceeds node count")
        self.ring = HashRing(self.node_ids)

    def settle(self) -> None:
        """Instantaneous full pairwise sync (test/bench convenience for
        'run to quiescence' without waiting for gossip)."""
        for a in self.replicas:
            for b in self.replicas:
                if a is b:
                    continue
                for key, state in b.data.items():
                    a.merge_in(a.data, key, state)

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
            name, retry, opts, pin="coordinator", candidates=self.ring.nodes,
        )
        put_fn, get_fn = self._token_fns(client)
        return FnSession(
            client,
            put_fn=put_fn,
            read_fns={"quorum": get_fn},
            default_mode="quorum",
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


@registry.register(StoreCapabilities(
    name="quorum_siblings",
    description="partial quorums keeping concurrent siblings (DVV contexts)",
    read_modes=("quorum",),
    multi_value_reads=True,
    failover_reads=True,
    failover_writes=True,
))
class SiblingDynamoCluster(DynamoCluster):
    """The same partial-quorum store keeping concurrent writes as
    siblings; use it when the application can merge (carts, sets)."""

    conflicts = DottedSiblings
    replica_prefix = "sib"
    client_prefix = "sclient"

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
