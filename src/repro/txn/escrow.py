"""Escrow transactions (O'Neil) for bounded counters.

The tutorial's recipe for keeping a *numeric invariant* (stock ≥ 0,
balance ≥ 0) without global coordination: split the allowed headroom
across sites as local **escrow allowances**.  A debit that fits the
local allowance commits locally — zero WAN cost, invariant safe by
construction.  A debit that doesn't triggers escrow *transfers* from
peers (WAN round trips), and aborts only when the global headroom is
truly insufficient.

:class:`CentralCounter` is the comparison baseline — every operation
takes a round trip to one lock server.  E9 sweeps headroom and skew
to chart abort rate and mean latency for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from ..errors import InvariantViolation
from ..sim import Future, Network, Node, Simulator

#: How long (ms) a site waits for a peer's grant before asking the next.
TRANSFER_TIMEOUT = 300.0


@dataclass
class EscrowRequest:
    """Ask a peer to spare up to ``wanted`` units of escrow."""

    request_id: int
    wanted: float


@dataclass
class EscrowGrant:
    request_id: int
    amount: float


class EscrowSite(Node):
    """One site holding a slice of the global headroom."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: Hashable,
        peers: list[Hashable],
        initial_escrow: float,
    ) -> None:
        super().__init__(sim, network, node_id)
        self.peers = [p for p in peers if p != node_id]
        self.local_escrow = float(initial_escrow)
        self._request_ids = 0
        self._pending: dict[int, Future] = {}
        self.local_commits = 0
        self.transfers_requested = 0
        self.aborts = 0

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    def debit(self, amount: float) -> Future:
        """Consume ``amount`` of the global headroom.

        Fast path: local escrow suffices.  Slow path: solicit
        transfers from peers, one at a time, until covered or out of
        peers (abort with :class:`InvariantViolation`).
        """
        if amount < 0:
            raise InvariantViolation("debit must be non-negative")
        future = Future(self.sim, label=("debit({})", amount))
        if self.local_escrow >= amount:
            self.local_escrow -= amount
            self.local_commits += 1
            future.resolve(True)
            return future
        self._solicit(future, amount, peer_index=0)
        return future

    def _solicit(self, future: Future, amount: float, peer_index: int) -> None:
        if self.local_escrow >= amount:
            self.local_escrow -= amount
            self.local_commits += 1
            future.try_resolve(True)
            return
        if peer_index >= len(self.peers):
            self.aborts += 1
            future.try_fail(
                InvariantViolation(
                    f"escrow exhausted: need {amount}, have {self.local_escrow}"
                )
            )
            return
        peer = self.peers[peer_index]
        self._request_ids += 1
        request_id = self._request_ids
        shortfall = amount - self.local_escrow
        reply_future = Future(self.sim)
        self._pending[request_id] = reply_future
        self.transfers_requested += 1
        self.send(peer, EscrowRequest(request_id, shortfall))

        def on_reply(reply: Future) -> None:
            if reply.error is None and isinstance(reply.value, float):
                self.local_escrow += reply.value
            self._solicit(future, amount, peer_index + 1)

        reply_future.add_callback(on_reply)
        self.set_timer(
            TRANSFER_TIMEOUT,
            lambda: reply_future.try_resolve(0.0),
        )

    # ------------------------------------------------------------------
    # Peer protocol
    # ------------------------------------------------------------------
    def handle_EscrowRequest(self, src: Hashable, msg: EscrowRequest) -> None:
        granted = min(self.local_escrow, msg.wanted)
        self.local_escrow -= granted
        self.send(src, EscrowGrant(msg.request_id, granted))

    def handle_EscrowGrant(self, src: Hashable, msg: EscrowGrant) -> None:
        future = self._pending.pop(msg.request_id, None)
        if future is not None:
            future.try_resolve(float(msg.amount))


#: Sites an :class:`EscrowCounter` splits its headroom across.
_SITES = 3


class EscrowCounter:
    """Three sites sharing one bounded counter's headroom, split evenly."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        total: float,
    ) -> None:
        if total < 0:
            raise InvariantViolation("total headroom must be non-negative")
        ids = [f"esc{i}" for i in range(_SITES)]
        self.sites = [
            EscrowSite(sim, network, node_id, ids, total / _SITES)
            for node_id in ids
        ]

    def site(self, index: int) -> EscrowSite:
        return self.sites[index]

    def global_headroom(self) -> float:
        """Invariant witness: the sum of local escrows never goes
        negative, and (absent in-flight grants) equals total - debits."""
        return sum(site.local_escrow for site in self.sites)


# ---------------------------------------------------------------------------
# Baseline: central lock server
# ---------------------------------------------------------------------------


@dataclass
class CentralDebit:
    amount: float


class CentralCounterServer(Node):
    """All updates serialized at one server — correct and slow."""

    def __init__(self, sim: Simulator, network: Network, node_id: Hashable,
                 total: float) -> None:
        super().__init__(sim, network, node_id)
        self.headroom = float(total)
        self.commits = 0
        self.aborts = 0

    def handle_CentralDebit(self, src: Hashable, msg: CentralDebit) -> None:
        if self.headroom >= msg.amount:
            self.headroom -= msg.amount
            self.commits += 1
            self.send(src, ("ok", self.headroom))
        else:
            self.aborts += 1
            self.send(src, ("insufficient", self.headroom))


class CentralCounterClient(Node):
    """Blocking-style client for the central counter."""

    def __init__(self, sim: Simulator, network: Network, node_id: Hashable,
                 server_id: Hashable) -> None:
        super().__init__(sim, network, node_id)
        self.server_id = server_id
        self._waiting: list[Future] = []

    def debit(self, amount: float) -> Future:
        future = Future(self.sim, label=("central-debit({})", amount))
        self._waiting.append(future)
        self.send(self.server_id, CentralDebit(amount))
        return future

    def handle_tuple(self, src: Hashable, msg: tuple) -> None:
        status, headroom = msg
        future = self._waiting.pop(0)
        if status == "ok":
            future.resolve(True)
        else:
            future.fail(InvariantViolation("insufficient headroom"))
