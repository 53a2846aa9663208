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

Omitted: Bayou's per-write merge procedures and dependency checks
(application-level conflict handlers); writes here are plain
last-in-order assignments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable

from ..clocks import LamportClock, LamportStamp
from ..sim import Network, Node, Simulator

#: Anti-entropy period (ms) of every replica.
INTERVAL = 25.0


@dataclass(frozen=True)
class BayouWrite:
    """One write: globally unique by (stamp), totally ordered by it."""

    stamp: LamportStamp          # tentative order
    key: Hashable
    value: Any


@dataclass
class WriteSet:
    """Anti-entropy payload: writes + commit assignments."""

    writes: tuple                 # tuple[BayouWrite]
    commits: tuple                # tuple[(csn, stamp)]
    reply_expected: bool


class BayouReplica(Node):
    """One Bayou server.  ``is_primary`` replicas assign CSNs."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: Hashable,
        cluster: "BayouCluster",
        is_primary: bool = False,
    ) -> None:
        super().__init__(sim, network, node_id)
        self.cluster = cluster
        self.is_primary = is_primary
        self.clock = LamportClock(node_id)
        self._writes: dict[LamportStamp, BayouWrite] = {}
        self._commits: dict[LamportStamp, int] = {}     # stamp -> CSN
        self._next_csn = 0                              # primary only
        self._c_rollbacks = sim.metrics.counter(f"bayou.{node_id}.rollbacks")
        self._c_commits = sim.metrics.counter("bayou.commits")
        self.every(INTERVAL, self.anti_entropy_once, jitter=0.5)

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
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


class BayouCluster:
    """N Bayou replicas, the first of them the commit primary."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        nodes: int = 4,
        node_ids: list[Hashable] | None = None,
    ) -> None:
        if nodes < 1:
            raise ValueError("need at least one replica")
        ids = node_ids or [f"by{i}" for i in range(nodes)]
        self.sim = sim
        self.network = network
        self.node_ids = list(ids)
        self.replicas = [
            BayouReplica(sim, network, node_id, self,
                         is_primary=(index == 0))
            for index, node_id in enumerate(ids)
        ]

    @property
    def primary(self) -> BayouReplica:
        return next(r for r in self.replicas if r.is_primary)

    def replica(self, index: int) -> BayouReplica:
        return self.replicas[index]

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
