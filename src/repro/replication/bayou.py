"""Bayou-style tentative/committed replication (Terry et al.).

The system the session-guarantee work came from, and the tutorial's
example of *application-visible* eventual consistency: every replica
accepts writes immediately as **tentative**, orders them by timestamp,
and exposes two views — the stable **committed** prefix (ordered by
the primary's commit sequence numbers) and the full tentative view
(committed prefix + tentative suffix, which may *reorder* as earlier-
timestamped writes arrive).  Anti-entropy floods writes between
replicas; the primary commits writes in the order it learns them;
replicas roll back their tentative suffix and replay on every change.

What the model preserves from the paper:

* immediate local writes, two read views,
* rollback-and-replay (implemented as recompute-from-logs, which is
  semantically identical and fine at simulator scale),
* commit stability: a replica's committed prefix only ever grows,
* convergence of both views once anti-entropy quiesces.

A session is a client bound to one replica (chosen round-robin) that
reaches it over RPC, as every store's does: a crashed or partitioned
replica times out its session's ops.

Omitted: Bayou's per-write merge procedures and dependency checks
(application-level conflict handlers); writes here are plain
last-in-order assignments.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Hashable

from ..api import registry
from ..api.store import FnSession, StoreCapabilities, StoreSession
from ..clocks import LamportClock, LamportStamp
from ..rpc import RetryPolicy
from ..sim import Future, Network, Simulator
from .common import GroupClient, ReplicaGroup, ServerNode

#: Anti-entropy period (ms) of every replica.
INTERVAL = 25.0


@dataclass(frozen=True)
class BayouWrite:
    """One write: globally unique by (stamp), totally ordered by it."""

    stamp: LamportStamp          # tentative order
    key: Hashable
    value: Any


@dataclass
class BPut:
    """Client → replica: accept a write tentatively."""

    key: Hashable
    value: Any


@dataclass
class BGet:
    """Client → replica: read one of the two views."""

    key: Hashable
    mode: str                     # "tentative" | "committed"


@dataclass
class WriteSet:
    """Anti-entropy payload: writes + commit assignments."""

    writes: tuple                 # tuple[BayouWrite]
    commits: tuple                # tuple[(csn, stamp)]
    reply_expected: bool


class BayouReplica(ServerNode):
    """One Bayou server.  ``is_primary`` replicas assign CSNs."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: Hashable,
        cluster: "BayouCluster",
    ) -> None:
        super().__init__(sim, network, node_id)
        self.cluster = cluster
        self.is_primary = False
        self.clock = LamportClock(node_id)
        self._writes: dict[LamportStamp, BayouWrite] = {}
        self._commits: dict[LamportStamp, int] = {}     # stamp -> CSN
        self._next_csn = 0                              # primary only
        self._c_rollbacks = sim.metrics.counter(f"bayou.{node_id}.rollbacks")
        self._c_commits = sim.metrics.counter("bayou.commits")
        self.every(INTERVAL, self.anti_entropy_once, jitter=0.5)

    # ------------------------------------------------------------------
    # Client API: the wire handlers over the replica's local rules
    # ------------------------------------------------------------------
    def serve_BPut(self, src: Hashable, payload: BPut) -> LamportStamp:
        return self.write(payload.key, payload.value).stamp

    def serve_BGet(self, src: Hashable, payload: BGet) -> tuple:
        """``(value, None)``: a Bayou read carries no version token."""
        if payload.mode == "committed":
            return self.read_committed(payload.key), None
        return self.read_tentative(payload.key), None

    def write(self, key: Hashable, value: Any) -> BayouWrite:
        """Accept a write tentatively, effective locally right now."""
        stamp = self.clock.tick()
        record = BayouWrite(stamp, key, value)
        self._accept(record)
        return record

    def read_tentative(self, key: Hashable) -> Any:
        """Committed prefix + tentative suffix (may still reorder)."""
        return self._replay(self._full_order()).get(key)

    def read_committed(self, key: Hashable) -> Any:
        """Only the stable committed prefix."""
        return self._replay(self._committed_order()).get(key)

    def tentative_count(self) -> int:
        return len(self._writes) - len(self._commits)

    # ------------------------------------------------------------------
    # Ordering and replay
    # ------------------------------------------------------------------
    def _committed_order(self) -> list[BayouWrite]:
        by_csn = sorted(
            (csn, stamp) for stamp, csn in self._commits.items()
        )
        return [self._writes[stamp] for _csn, stamp in by_csn]

    def _full_order(self) -> list[BayouWrite]:
        committed = self._committed_order()
        tentative = sorted(
            (
                record
                for stamp, record in self._writes.items()
                if stamp not in self._commits
            ),
            key=lambda record: record.stamp,
        )
        return committed + tentative

    @staticmethod
    def _replay(order: list[BayouWrite]) -> dict:
        state: dict = {}
        for record in order:
            state[record.key] = record.value
        return state

    # ------------------------------------------------------------------
    # Write propagation
    # ------------------------------------------------------------------
    def _accept(self, record: BayouWrite) -> bool:
        if record.stamp in self._writes:
            return False
        # An insertion that is not at the tail of the tentative order
        # forces a (logical) rollback + replay.
        tentative = [
            s for s in self._writes if s not in self._commits
        ]
        if any(record.stamp < stamp for stamp in tentative):
            self._c_rollbacks.inc()
            self.sim.annotate("bayou_rollback", node=self.node_id,
                              key=record.key)
        self._writes[record.stamp] = record
        self.clock.observe(record.stamp)
        if self.is_primary:
            self._commit_known()
        return True

    def _commit_known(self) -> None:
        """Primary: commit every known write, in tentative order among
        the not-yet-committed (Bayou commits in arrival/stamp order)."""
        uncommitted = sorted(
            stamp for stamp in self._writes if stamp not in self._commits
        )
        for stamp in uncommitted:
            self._commits[stamp] = self._next_csn
            self._next_csn += 1
            self._c_commits.inc()

    # ------------------------------------------------------------------
    # Anti-entropy
    # ------------------------------------------------------------------
    def anti_entropy_once(self) -> None:
        peers = [n for n in self.cluster.node_ids if n != self.node_id]
        if not peers:
            return
        peer = peers[self.sim.rng.randrange(len(peers))]
        self.send(peer, self._write_set(reply_expected=True))

    def _write_set(self, reply_expected: bool) -> WriteSet:
        return WriteSet(
            writes=tuple(self._writes.values()),
            commits=tuple(
                (csn, stamp) for stamp, csn in self._commits.items()
            ),
            reply_expected=reply_expected,
        )

    def handle_WriteSet(self, src: Hashable, msg: WriteSet) -> None:
        for record in msg.writes:
            self._accept(record)
        for csn, stamp in msg.commits:
            if stamp not in self._commits and stamp in self._writes:
                self._commits[stamp] = csn
        if msg.reply_expected:
            self.send(src, self._write_set(reply_expected=False))

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        return self._replay(self._full_order())

    def committed_snapshot(self) -> dict:
        return self._replay(self._committed_order())

    def committed_stamps(self) -> list[LamportStamp]:
        """CSN-ordered stamps — for prefix-stability checks."""
        return [record.stamp for record in self._committed_order()]


class BayouClient(GroupClient):
    """A client bound to one Bayou server for its whole session."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: Hashable,
        cluster: "BayouCluster",
        session: Hashable,
        server: Hashable,
    ) -> None:
        super().__init__(sim, network, node_id, cluster, session)
        self.server = server

    def put(self, key: Hashable, value: Any, timeout: float | None) -> Future:
        """Tentative write; resolves with the write's stamp."""
        return self.call(self.server, BPut(key, value), timeout)

    def get(self, mode: str, key: Hashable, timeout: float | None) -> Future:
        """Read the ``mode`` view (first, so a session binds one call per
        mode); resolves with ``(value, None)``."""
        return self.call(self.server, BGet(key, mode), timeout)


@registry.register(StoreCapabilities(
    name="bayou",
    description="Bayou tentative/committed writes, primary commit order",
    read_modes=("tentative", "committed"),
    tentative_reads=True,
    retry_safe_writes=False,
))
class BayouCluster(ReplicaGroup):
    """N Bayou replicas, the first of them the commit primary."""

    replica_class = BayouReplica
    client_class = BayouClient
    replica_prefix = "by"
    client_prefix = "byclient"
    #: Round-robin cursor over the replicas sessions attach to.
    _next_replica = 0

    def __init__(
        self, sim: Simulator, network: Network, nodes: int = 4, **group: Any,
    ) -> None:
        super().__init__(sim, network, nodes=nodes, **group)
        self.replicas[0].is_primary = True

    @property
    def primary(self) -> BayouReplica:
        return next(r for r in self.replicas if r.is_primary)

    def converged(self) -> bool:
        snapshots = [r.snapshot() for r in self.replicas]
        committed = [r.committed_snapshot() for r in self.replicas]
        return all(s == snapshots[0] for s in snapshots) and all(
            c == committed[0] for c in committed
        )

    def run_until_converged(
        self, poll: float = 10.0, deadline: float = 120_000.0
    ) -> float:
        from ..errors import TimeoutError as ReproTimeoutError

        limit = self.sim.now + deadline
        while self.sim.now < limit:
            if self.converged():
                return self.sim.now
            self.sim.run(until=self.sim.now + poll)
        raise ReproTimeoutError(f"not converged within {deadline}ms")

    def session(
        self,
        name: Hashable | None = None,
        retry: RetryPolicy | None = None,
        **opts: Any,
    ) -> StoreSession:
        ids = self.node_ids
        server = ids[self._next_replica % len(ids)]
        self._next_replica += 1
        client, _pref, region = self._open(
            name, retry, {**opts, "server": server}
        )
        return FnSession(
            client,
            put_fn=client.put,
            read_fns={mode: partial(client.get, mode)
                      for mode in self.capabilities.read_modes},
            default_mode="tentative",
            region=region,
        )

    def settle(self) -> None:
        """Instantaneous pairwise anti-entropy, twice: once to flood
        writes to the primary, once to flood commit orders back."""
        for _round in range(2):
            for source in self.replicas:
                write_set = source._write_set(reply_expected=False)
                for target in self.replicas:
                    if target is not source:
                        target.handle_WriteSet(source.node_id, write_set)
