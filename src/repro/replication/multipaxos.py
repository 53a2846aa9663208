"""Multi-Paxos replicated state machine over a key-value store.

The Spanner/Megastore stand-in: a stable leader sequences client
commands into a replicated log; an entry commits when a majority of
replicas accept it; every replica applies the log in order to a local
KV state machine.  Client writes and *linearizable* reads go through
the log (one WAN round trip leader↔majority — the cost E10 measures);
*local* reads hit any replica's state machine directly and may be
stale but are timeline-consistent (log-prefix order).

Leader change runs a full phase 1 (ballot prepare over all log slots),
so the protocol stays safe across failovers; the happy path skips
phase 1 exactly as Multi-Paxos prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable

from ..api import registry
from ..api.store import FnSession, StoreCapabilities, StoreSession, resolved
from ..errors import NotLeaderError
from ..rpc import RetryPolicy
from ..sim import Future, Network, Simulator
from .common import GroupClient, ReplicaGroup, ServerNode

# Ballots are ``(round, proposer_id)`` tuples, totally ordered.
Ballot = tuple[int, str]

NO_BALLOT: Ballot = (0, "")


# -- commands -----------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PutCmd:
    key: Hashable
    value: Any


@dataclass(frozen=True, slots=True)
class GetCmd:
    key: Hashable


@dataclass(frozen=True, slots=True)
class Noop:
    pass


# -- client payloads ------------------------------------------------------------


@dataclass(slots=True)
class SubmitCmd:
    command: Any


@dataclass(slots=True)
class LocalRead:
    key: Hashable


# -- replica-to-replica messages ---------------------------------------------


@dataclass(slots=True)
class MPPrepare:
    ballot: Ballot


@dataclass(slots=True)
class MPPromise:
    ballot: Ballot
    accepted: dict  # slot -> (ballot, command)


@dataclass(slots=True)
class MPAccept:
    ballot: Ballot
    slot: int
    command: Any


@dataclass(slots=True)
class MPAccepted:
    ballot: Ballot
    slot: int


@dataclass(slots=True)
class MPNack:
    ballot: Ballot
    promised: Ballot


@dataclass(slots=True)
class MPCommit:
    slot: int
    command: Any


@dataclass(slots=True)
class CatchupRequest:
    """Learner with a log gap asks a peer for committed slots."""

    from_slot: int


@dataclass(slots=True)
class CatchupReply:
    committed: dict  # slot -> command


class PaxosReplica(ServerNode):
    """Acceptor + learner + (when leading) sequencer, in one node."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: Hashable,
        cluster: "MultiPaxosCluster",
    ) -> None:
        super().__init__(sim, network, node_id)
        self.cluster = cluster
        self._peers = [peer for peer in cluster.node_ids if peer != node_id]
        # Acceptor state (durable across crash).
        self.promised: Ballot = NO_BALLOT
        self.accepted: dict[int, tuple[Ballot, Any]] = {}
        # Learner state.
        self.committed: dict[int, Any] = {}
        self._last_committed = -1  # highest slot in ``committed``
        self.applied_through = -1
        self.store: dict[Hashable, tuple[Any, int]] = {}  # key -> (value, version)
        # Leader state.
        self.is_leader = False
        self.ballot: Ballot = NO_BALLOT
        self.next_slot = 0
        # Undecided slots proposed under the current ballot only: a
        # slot leaves both tables when it commits, a new ballot starts
        # with both empty.
        self._accept_votes: dict[int, set] = {}   # slot -> acceptor ids
        self._proposals: dict[int, Any] = {}
        # slot -> (the command this node proposed there, its client's
        # future); the future resolves only if that command commits.
        self._slot_futures: dict[int, tuple[Any, Future]] = {}
        self._promises: list[tuple[Hashable, MPPromise]] = []
        self._preparing = False
        self._catching_up = False

    # ------------------------------------------------------------------
    # Leadership
    # ------------------------------------------------------------------
    def start_leadership(self, round_number: int = 1) -> None:
        """Run phase 1 for all slots with ballot (round, node_id)."""
        self.ballot = (round_number, str(self.node_id))
        self._preparing = True
        self._promises = []
        # A vote counts only in the ballot it was cast in; phase 1
        # re-proposes every slot it adopts, so nothing live is lost.
        self._accept_votes.clear()
        self._proposals.clear()
        prepare = MPPrepare(self.ballot)
        # Its own acceptor answers first, in-process: the promise (or
        # nack) goes straight to this node's handler for it.
        self.deliver(self.node_id, self._prepare(prepare))
        self.send_many(self._peers, prepare)

    # An acceptor's rules map a request to the answer it owes: a handler
    # sends it, the leader's own share hands it to its own handler.
    def _prepare(self, msg: MPPrepare) -> "MPPromise | MPNack":
        # Re-promising an equal ballot keeps the rule idempotent under
        # message duplication (a nack here would depose the leader with
        # its own duplicated prepare).
        if msg.ballot >= self.promised:
            self.promised = msg.ballot
            return MPPromise(msg.ballot, dict(self.accepted))
        return MPNack(msg.ballot, self.promised)

    def handle_MPPrepare(self, src: Hashable, msg: MPPrepare) -> None:
        self.send(src, self._prepare(msg))

    def handle_MPPromise(self, src: Hashable, msg: MPPromise) -> None:
        if not self._preparing or msg.ballot != self.ballot:
            return
        if any(existing_src == src for existing_src, _m in self._promises):
            return  # duplicate delivery
        self._promises.append((src, msg))
        if len(self._promises) < self.cluster.majority:
            return
        self._preparing = False
        self.is_leader = True
        # Adopt the highest-ballot accepted command per slot and
        # re-propose it, so no chosen command is ever lost.
        by_slot: dict[int, tuple[Ballot, Any]] = {}
        for _src, promise in self._promises:
            for slot, (ballot, command) in promise.accepted.items():
                if slot not in by_slot or ballot > by_slot[slot][0]:
                    by_slot[slot] = (ballot, command)
        max_slot = max(by_slot, default=-1)
        for slot in range(max_slot + 1):
            _b, command = by_slot.get(slot, (NO_BALLOT, Noop()))
            self._propose_in_slot(slot, command)
        self.next_slot = max(self.next_slot, max_slot + 1)
        self.cluster._on_leader_elected(self)

    def handle_MPNack(self, src: Hashable, msg: MPNack) -> None:
        if msg.ballot != self.ballot:
            return
        self._preparing = False
        self.is_leader = False

    # ------------------------------------------------------------------
    # Log replication (phase 2)
    # ------------------------------------------------------------------
    def _propose_in_slot(self, slot: int, command: Any) -> None:
        if slot not in self.committed:
            self._accept_votes.setdefault(slot, set())
            self._proposals[slot] = command
        accept = MPAccept(self.ballot, slot, command)
        # The leader is an acceptor too: it votes first, in-process —
        # unless it has promised a higher ballot.
        vote = self._accept(accept)
        if vote is not None:
            self.handle_MPAccepted(self.node_id, vote)
        self.send_many(self._peers, accept)

    def _accept(self, msg: MPAccept) -> "MPAccepted | None":
        if msg.ballot < self.promised:
            return None
        self.promised = msg.ballot
        self.accepted[msg.slot] = (msg.ballot, msg.command)
        return MPAccepted(msg.ballot, msg.slot)

    def handle_MPAccept(self, src: Hashable, msg: MPAccept) -> None:
        vote = self._accept(msg)
        if vote is not None:
            self.send(src, vote)

    def handle_MPAccepted(self, src: Hashable, msg: MPAccepted) -> None:
        if not self.is_leader or msg.ballot != self.ballot:
            return
        votes = self._accept_votes.get(msg.slot)
        if votes is None:
            return  # already decided: late or duplicated vote
        votes.add(src)  # set semantics: duplicates don't double-count
        if len(votes) >= self.cluster.majority:
            command = self._proposals[msg.slot]
            self._commit(msg.slot, command)
            self.send_many(self._peers, MPCommit(msg.slot, command))

    def handle_MPCommit(self, src: Hashable, msg: MPCommit) -> None:
        self._commit(msg.slot, msg.command)
        # A gap below this commit means we missed earlier commits
        # (crash, partition): learn them from the sender.
        if self.applied_through < msg.slot and not self._catching_up:
            self._catching_up = True
            self.send(src, CatchupRequest(self.applied_through + 1))

    def handle_CatchupRequest(self, src: Hashable, msg: CatchupRequest) -> None:
        # Walk the requested suffix, never the whole log: O(gap).
        committed = self.committed
        slots = {
            slot: committed[slot]
            for slot in range(msg.from_slot, self._last_committed + 1)
            if slot in committed
        }
        self.send(src, CatchupReply(slots))

    def handle_CatchupReply(self, src: Hashable, msg: CatchupReply) -> None:
        self._catching_up = False
        for slot, command in sorted(msg.committed.items()):
            self._commit(slot, command)

    def _commit(self, slot: int, command: Any) -> None:
        if slot not in self.committed:
            self.committed[slot] = command
            if slot > self._last_committed:
                self._last_committed = slot
            self._accept_votes.pop(slot, None)
            self._proposals.pop(slot, None)
            # Only the slot after the applied prefix can extend that prefix.
            if slot == self.applied_through + 1:
                self._apply_ready()

    def _apply_ready(self) -> None:
        while self.applied_through + 1 in self.committed:
            slot = self.applied_through + 1
            command = self.committed[slot]
            result = self._apply(command)
            self.applied_through = slot
            proposed, future = self._slot_futures.pop(slot, (None, None))
            if future is None or future.done:
                continue
            # Another leader's command won the slot: this node's client
            # was never logged.  Commands travel by reference, so
            # identity says whose command it is.
            if command is proposed:
                future.resolve(result)
            else:
                future.fail(NotLeaderError(
                    f"{self.node_id!r} lost slot {slot} to another leader"))

    def _apply(self, command: Any) -> Any:
        if isinstance(command, PutCmd):
            version = self.store.get(command.key, (None, 0))[1] + 1
            self.store[command.key] = (command.value, version)
            return version
        if isinstance(command, GetCmd):
            return self.store.get(command.key, (None, 0))
        return None  # Noop

    # ------------------------------------------------------------------
    # Client-facing
    # ------------------------------------------------------------------
    def serve_SubmitCmd(self, src: Hashable, payload: SubmitCmd):
        if not self.is_leader:
            raise NotLeaderError(f"{self.node_id!r} is not the leader")
        slot = self.next_slot
        self.next_slot += 1
        future = Future(self.sim, label=("slot#{}", slot))
        self._slot_futures[slot] = (payload.command, future)
        self._propose_in_slot(slot, payload.command)
        return future

    def serve_LocalRead(self, src: Hashable, payload: LocalRead):
        return self.store.get(payload.key, (None, 0))

    # ------------------------------------------------------------------
    def on_crash(self) -> None:
        # promised/accepted/committed persist (durable); leadership and
        # in-flight client futures do not.
        self.is_leader = False
        self._preparing = False
        self._catching_up = False
        self._accept_votes.clear()
        self._proposals.clear()
        self._slot_futures.clear()

    def snapshot(self) -> dict:
        return {key: value for key, (value, _version) in self.store.items()}


class PaxosClient(GroupClient):
    """Client handle bound to one session.  While the group has no
    leader, an op that needs one returns a future already failed with
    :class:`~repro.errors.NotLeaderError`: no message, no random draw."""

    def put(
        self, key: Hashable, value: Any, timeout: float | None = None
    ) -> Future:
        """Replicated write; resolves with the new version."""
        leader = self.cluster.leader
        if leader is None:
            return self._no_leader()
        # Commands must go through the leader; a retried submit dedups
        # there so a slow commit is not proposed twice.
        return self.call(leader.node_id, SubmitCmd(PutCmd(key, value)),
                         timeout, idempotent=True)

    def get(self, key: Hashable, timeout: float | None = None) -> Future:
        """Linearizable read through the log; resolves (value, version)."""
        leader = self.cluster.leader
        if leader is None:
            return self._no_leader()
        return self.call(leader.node_id, SubmitCmd(GetCmd(key)), timeout)

    def local_get(
        self,
        key: Hashable,
        replica: "PaxosReplica | None" = None,
        timeout: float | None = None,
    ) -> Future:
        """Possibly stale read from one replica's state machine."""
        replica = replica or self.cluster.leader
        if replica is None:
            return self._no_leader()
        target = replica.node_id
        endpoints = [target] + [
            node for node in self.cluster.node_ids if node != target
        ]
        return self.call(endpoints, LocalRead(key), timeout)

    def _no_leader(self) -> Future:
        return resolved(self.sim, error=NotLeaderError("no active leader"))


@registry.register(StoreCapabilities(
    name="multipaxos",
    description="consensus-replicated KV log; linearizable log reads",
    read_modes=("log", "local"),
    linearizable_read_modes=("log",),
))
class MultiPaxosCluster(ReplicaGroup):
    """A Multi-Paxos group replicating a KV state machine.

    Construction starts the first leader election and, on an idle
    simulator, runs it to completion (``sim.run()``) so sessions are
    immediately usable — build groups before spawning workload
    processes.  Built mid-run (a shard added to a live ring), the
    election runs alongside the workload, and ops refused with
    :class:`~repro.errors.NotLeaderError` until it completes are the
    caller's to retry.
    """

    replica_class = PaxosReplica
    client_class = PaxosClient
    replica_prefix = "px"
    client_prefix = "pxclient"

    def __init__(self, sim: Simulator, network: Network, **group: Any) -> None:
        super().__init__(sim, network, **group)
        self._leader: PaxosReplica | None = None
        self._round = 0
        #: Votes that decide a ballot or a slot; membership is fixed.
        self.majority = len(self.replicas) // 2 + 1
        self.elect()
        if not sim.running:
            sim.run()

    @property
    def leader(self) -> PaxosReplica | None:
        """The elected replica while it is up and leading, else None."""
        leader = self._leader
        if leader is None or leader.crashed or not leader.is_leader:
            return None
        return leader

    def elect(self, replica: "PaxosReplica | None" = None) -> None:
        """Start phase 1 at ``replica`` (default: first alive node).
        Run the simulator to let the election finish."""
        candidate = replica or next(r for r in self.replicas if not r.crashed)
        self._round += 1
        candidate.start_leadership(self._round)

    def _on_leader_elected(self, replica: PaxosReplica) -> None:
        for other in self.replicas:
            if other is not replica:
                other.is_leader = False
        self._leader = replica

    def settle(self) -> None:
        """Instantaneous log repair: union every replica's committed
        slots (crashed replicas included — the commit log is durable)
        and feed the union to each live replica via ``_commit``, which
        applies the contiguous prefix.  Slots never committed anywhere
        stay gaps and stall application identically on every replica,
        so replicas still agree after the sweep."""
        union: dict[int, Any] = {}
        for replica in self.replicas:
            union.update(replica.committed)
        for replica in self.replicas:
            if replica.crashed:
                continue
            for slot in sorted(union):
                if slot not in replica.committed:
                    replica._commit(slot, union[slot])
            replica._apply_ready()

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
            read_fns={
                "log": self._versioned(client.get),
                "local": self._versioned(client.local_get),
            },
            default_mode="log",
            region=region,
        )
