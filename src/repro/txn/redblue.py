"""RedBlue consistency (Li et al., OSDI 2012) on a geo-replicated bank.

The tutorial's "fast as possible, consistent when necessary" point:
operations are labeled **blue** (commutative, invariant-safe — they
run at the local site immediately and propagate asynchronously as
shadow deltas) or **red** (they must be globally serialized — one
round trip to a sequencer that also guards the invariant).

The state here is the canonical bank: per-account balances with the
invariant *balance ≥ 0*.  Deposits commute and cannot break the
invariant → blue.  Withdrawals can → red, checked at the sequencer
whose view is conservative (it may miss recent blue deposits, so it
can reject a valid withdrawal but never admit an invalid one).

E8 measures mean latency vs. the blue fraction of the workload — the
RedBlue speedup curve.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Hashable

from ..errors import InvariantViolation
from ..replication.ring import stable_hash
from ..sim import Future, Network, Node, Simulator


@dataclass(frozen=True)
class ShadowOp:
    """A commutative state delta, applied at every site exactly once."""

    op_id: int
    key: Hashable
    delta: float
    red: bool
    seqno: int | None = None   # global order, red ops only


@dataclass
class RedRequest:
    op_id: int
    key: Hashable
    delta: float
    origin: Hashable


@dataclass
class RedReply:
    op_id: int
    ok: bool
    reason: str = ""


class RedBlueSite(Node):
    """One geo-site: applies blue ops locally, red ops in global order."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: Hashable,
        coordinator_id: Hashable,
        site_ids: list[Hashable],
    ) -> None:
        super().__init__(sim, network, node_id)
        self.coordinator_id = coordinator_id
        self.site_ids = list(site_ids)
        self.balances: dict[Hashable, float] = {}
        self.applied: set[int] = set()
        self._next_red_seq = 0
        self._red_buffer: dict[int, ShadowOp] = {}
        self._pending: dict[int, Future] = {}
        self._op_ids = itertools.count(1)
        self.blue_ops = 0
        self.red_ops = 0

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    def deposit(self, account: Hashable, amount: float) -> Future:
        """Blue: applies locally now, propagates asynchronously."""
        if amount < 0:
            raise InvariantViolation("deposit must be non-negative")
        future = Future(self.sim, label=("deposit({})", account))
        op = ShadowOp(self._fresh_op_id(), account, amount, red=False)
        self._apply(op)
        self.blue_ops += 1
        self.send_many([site for site in self.site_ids if site != self.node_id], op)
        # The sequencer needs blue deltas too, or its conservative
        # view would never credit deposits and red ops would starve.
        self.send(self.coordinator_id, op)
        future.resolve(self.balances[account])
        return future

    def _fresh_op_id(self) -> int:
        return next(self._op_ids) * 100_000 + stable_hash(self.node_id) % 100_000

    def withdraw(self, account: Hashable, amount: float) -> Future:
        """Red: one round trip to the sequencer, which validates the
        invariant and assigns a global order."""
        if amount < 0:
            raise InvariantViolation("withdrawal must be non-negative")
        future = Future(self.sim, label=("withdraw({})", account))
        op_id = self._fresh_op_id()
        self._pending[op_id] = future
        self.red_ops += 1
        self.send(
            self.coordinator_id,
            RedRequest(op_id, account, -amount, self.node_id),
        )
        return future

    def balance(self, account: Hashable) -> float:
        return self.balances.get(account, 0.0)

    # ------------------------------------------------------------------
    # Shadow-op application
    # ------------------------------------------------------------------
    def _apply(self, op: ShadowOp) -> None:
        if op.op_id in self.applied:
            return
        self.applied.add(op.op_id)
        self.balances[op.key] = self.balances.get(op.key, 0.0) + op.delta

    def handle_ShadowOp(self, src: Hashable, op: ShadowOp) -> None:
        if not op.red:
            self._apply(op)
            return
        # Red ops apply in sequencer order at every site.
        self._red_buffer[op.seqno] = op
        while self._next_red_seq in self._red_buffer:
            self._apply(self._red_buffer.pop(self._next_red_seq))
            self._next_red_seq += 1

    def handle_RedReply(self, src: Hashable, msg: RedReply) -> None:
        future = self._pending.pop(msg.op_id, None)
        if future is None:
            return
        if msg.ok:
            future.resolve(True)
        else:
            future.fail(InvariantViolation(msg.reason))

    def snapshot(self) -> dict:
        return dict(self.balances)


class RedCoordinator(Node):
    """The red-op sequencer + invariant guard.

    Holds a conservative view of every balance: it sees all red ops
    (it orders them) and blue shadow ops as they arrive, so its view
    only ever *understates* balances — rejecting a withdrawal the true
    state could afford is possible; overdraft is not.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: Hashable,
        site_ids: list[Hashable],
    ) -> None:
        super().__init__(sim, network, node_id)
        self.site_ids = list(site_ids)
        self.view: dict[Hashable, float] = {}
        self.applied: set[int] = set()
        self._seq = 0
        self.rejections = 0

    def handle_ShadowOp(self, src: Hashable, op: ShadowOp) -> None:
        # Blue deposits flowing by; fold them into the view.
        if op.op_id not in self.applied:
            self.applied.add(op.op_id)
            self.view[op.key] = self.view.get(op.key, 0.0) + op.delta

    def handle_RedRequest(self, src: Hashable, msg: RedRequest) -> None:
        current = self.view.get(msg.key, 0.0)
        if current + msg.delta < 0:
            self.rejections += 1
            self.send(
                msg.origin,
                RedReply(
                    msg.op_id, False,
                    f"insufficient funds: {current} + {msg.delta} < 0",
                ),
            )
            return
        self.view[msg.key] = current + msg.delta
        self.applied.add(msg.op_id)
        op = ShadowOp(msg.op_id, msg.key, msg.delta, red=True, seqno=self._seq)
        self._seq += 1
        self.send_many(self.site_ids, op)
        self.send(msg.origin, RedReply(msg.op_id, True))


class RedBlueBank:
    """Factory wiring N sites + the sequencer onto a network."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        sites: int = 3,
        site_ids: list[Hashable] | None = None,
        coordinator_id: Hashable = "red-seq",
    ) -> None:
        ids = site_ids or [f"site{i}" for i in range(sites)]
        self.coordinator = RedCoordinator(sim, network, coordinator_id, ids)
        self.sites = [
            RedBlueSite(sim, network, node_id, coordinator_id, ids)
            for node_id in ids
        ]

    def site(self, index: int) -> RedBlueSite:
        return self.sites[index]

    def converged_balance(self, account: Hashable, tol: float = 1e-6) -> float:
        """The common balance across sites.

        Blue deltas are floats applied in different orders at different
        sites, so equality is up to ``tol`` (float addition is not
        associative); a genuine divergence raises.
        """
        values = [site.balance(account) for site in self.sites]
        if max(values) - min(values) > tol:
            raise InvariantViolation(
                f"sites diverge on {account!r}: {sorted(values)}"
            )
        return values[0]
