"""Single-decree Paxos (Lamport's Synod protocol).

The strong end of the tutorial's spectrum needs consensus; this module
is the textbook single-value protocol — proposers, acceptors with
durable promises, majority quorums — used directly by tests (safety
under dueling proposers, acceptor crashes) and as the foundation for
the Multi-Paxos replicated log in :mod:`repro.replication.multipaxos`.

Ballots are ``(round, proposer_id)`` tuples, totally ordered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable

from ..sim import Network, Node, Simulator

Ballot = tuple[int, str]

NO_BALLOT: Ballot = (0, "")


@dataclass
class Prepare:
    ballot: Ballot


@dataclass
class Promise:
    ballot: Ballot
    accepted_ballot: Ballot
    accepted_value: Any


@dataclass
class PrepareNack:
    ballot: Ballot
    promised: Ballot


@dataclass
class AcceptRequest:
    ballot: Ballot
    value: Any


@dataclass
class AcceptedMsg:
    ballot: Ballot


@dataclass
class AcceptNack:
    ballot: Ballot
    promised: Ballot


class Acceptor(Node):
    """Paxos acceptor.  Promises and accepted values survive crashes
    (they model durable storage), which is what makes recovery safe."""

    def __init__(self, sim: Simulator, network: Network, node_id: Hashable):
        super().__init__(sim, network, node_id)
        self.promised: Ballot = NO_BALLOT
        self.accepted_ballot: Ballot = NO_BALLOT
        self.accepted_value: Any = None

    def handle_Prepare(self, src: Hashable, msg: Prepare) -> None:
        # '>=': re-promising an equal ballot keeps this idempotent
        # under network-level message duplication.
        if msg.ballot >= self.promised:
            self.promised = msg.ballot
            self.send(
                src,
                Promise(msg.ballot, self.accepted_ballot, self.accepted_value),
            )
        else:
            self.send(src, PrepareNack(msg.ballot, self.promised))

    def handle_AcceptRequest(self, src: Hashable, msg: AcceptRequest) -> None:
        if msg.ballot >= self.promised:
            self.promised = msg.ballot
            self.accepted_ballot = msg.ballot
            self.accepted_value = msg.value
            self.send(src, AcceptedMsg(msg.ballot))
        else:
            self.send(src, AcceptNack(msg.ballot, self.promised))


class Proposer(Node):
    """Paxos proposer driving one value to consensus.

    ``propose(value)`` starts phase 1; on majority promises the
    proposer adopts the highest-ballot already-accepted value (or its
    own), runs phase 2, and calls ``on_decided`` on majority accepts.
    Nacks trigger a retry with a higher round after a randomized
    backoff — the standard liveness workaround for dueling proposers.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: Hashable,
        acceptor_ids: list[Hashable],
        on_decided: Callable[[Any], None] | None = None,
        max_retries: int = 32,
        backoff: float = 10.0,
    ) -> None:
        super().__init__(sim, network, node_id)
        self.acceptor_ids = list(acceptor_ids)
        self.on_decided = on_decided or (lambda value: None)
        self.max_retries = max_retries
        self.backoff = backoff
        metrics = sim.metrics
        self._c_rounds = metrics.counter("paxos.rounds_started")
        self._c_nacks = metrics.counter("paxos.nacks")
        self._c_decided = metrics.counter("paxos.decided")
        self.round = 0
        self.ballot: Ballot = NO_BALLOT
        self.my_value: Any = None
        self.phase = "idle"           # idle | prepare | accept | done
        self.decided_value: Any = None
        self._promises: dict[Hashable, Promise] = {}
        self._accepts: set[Hashable] = set()
        self._retries = 0

    @property
    def majority(self) -> int:
        return len(self.acceptor_ids) // 2 + 1

    # ------------------------------------------------------------------
    def propose(self, value: Any) -> None:
        if self.phase == "done":
            return
        self.my_value = value
        self._start_round()

    def _start_round(self) -> None:
        self.round += 1
        self._c_rounds.inc()
        self.ballot = (self.round, str(self.node_id))
        self.phase = "prepare"
        self._promises = {}
        self._accepts = set()
        self.send_many(self.acceptor_ids, Prepare(self.ballot))

    def _retry(self, observed: Ballot) -> None:
        if self.phase == "done":
            return
        self._c_nacks.inc()
        self._retries += 1
        if self._retries > self.max_retries:
            self.phase = "idle"
            return
        # Jump past the competing round, then back off randomly.
        self.round = max(self.round, observed[0])
        delay = self.sim.rng.uniform(0.5, 1.0) * self.backoff * self._retries
        self.set_timer(delay, self._start_round)
        self.phase = "backoff"

    # ------------------------------------------------------------------
    def handle_Promise(self, src: Hashable, msg: Promise) -> None:
        if self.phase != "prepare" or msg.ballot != self.ballot:
            return
        self._promises[src] = msg  # dict: duplicates don't double-count
        if len(self._promises) < self.majority:
            return
        # Adopt the highest-ballot accepted value among promises.
        best = max(self._promises.values(), key=lambda p: p.accepted_ballot)
        value = (
            best.accepted_value
            if best.accepted_ballot != NO_BALLOT
            else self.my_value
        )
        self.phase = "accept"
        self._chosen_for_round = value
        self.send_many(self.acceptor_ids, AcceptRequest(self.ballot, value))

    def handle_PrepareNack(self, src: Hashable, msg: PrepareNack) -> None:
        if self.phase == "prepare" and msg.ballot == self.ballot:
            self._retry(msg.promised)

    def handle_AcceptedMsg(self, src: Hashable, msg: AcceptedMsg) -> None:
        if self.phase != "accept" or msg.ballot != self.ballot:
            return
        self._accepts.add(src)
        if len(self._accepts) >= self.majority:
            self.phase = "done"
            self.decided_value = self._chosen_for_round
            self._c_decided.inc()
            self.sim.annotate("paxos_decided", proposer=self.node_id,
                              ballot=self.ballot)
            self.on_decided(self.decided_value)

    def handle_AcceptNack(self, src: Hashable, msg: AcceptNack) -> None:
        if self.phase == "accept" and msg.ballot == self.ballot:
            self._retry(msg.promised)
