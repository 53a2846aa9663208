"""Gossip-based membership with phi-accrual failure detection.

Every monitored node keeps a heartbeat counter and a local view of its
peers' counters.  Each gossip round (every :data:`INTERVAL` ms) a node
bumps its own counter and pushes its whole view to :data:`FANOUT`
random peers; receivers merge by max counter, and each *new* counter
value feeds that observer's :class:`~repro.membership.PhiAccrualDetector`
for the peer.  A peer's
status in an observer's view is then a pure function of phi:

    phi < SUSPECT_PHI (2)   → ``alive``
    phi < DEAD_PHI (5)      → ``suspect``
    otherwise               → ``dead``

The service is driven by a central pacemaker rather than per-node
``every()`` timers: node timers die on crash and are not re-armed on
recover, but membership must resume gossiping the moment a node comes
back.  The pacemaker tick is a daemon event, so membership never keeps
``sim.run()`` alive; a crashed node silently skips its round (and the
network already refuses to deliver to it), which is exactly what makes
its counter go stale everywhere else.

Determinism: peer selection uses the service's **own** seeded RNG, so
attaching membership does not perturb ``sim.rng`` consumers; the same
``(topology, seed)`` replays bit-identically.  Metrics publish under
``membership.*`` and status transitions are trace-annotated.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Hashable

from ..sim import Node, Simulator
from .detector import PhiAccrualDetector

ALIVE, SUSPECT, DEAD = "alive", "suspect", "dead"

#: Gossip round period (ms) and peers pushed to per round.
INTERVAL, FANOUT = 20.0, 2
#: Phi thresholds: suspect at or above the first, dead at or above
#: the second.
SUSPECT_PHI, DEAD_PHI = 2.0, 5.0


@dataclass
class GossipMsg:
    """One push round: the sender's view of everyone's counters."""

    heartbeats: dict


@dataclass
class _PeerState:
    """What one observer knows about one peer."""

    counter: int = -1
    status: str = ALIVE
    detector: PhiAccrualDetector = field(default_factory=PhiAccrualDetector)


class MembershipService:
    """A gossip/failure-detection overlay on existing server nodes.

    ::

        membership = MembershipService(sim, seed=7)
        membership.watch(store)          # monitor every server node
        membership.start()
        ...
        membership.statuses()            # aggregated cluster view

    Nodes join and leave live (``add_node`` / ``forget``), which is how
    the elastic sharded store keeps the overlay in sync with ring
    moves.
    """

    def __init__(
        self,
        sim: Simulator,
        seed: int = 0,
    ) -> None:
        self.sim = sim
        self.rng = random.Random(seed)
        self._nodes: dict[Hashable, Node] = {}
        self._counters: dict[Hashable, int] = {}
        # observer id -> peer id -> _PeerState
        self._views: dict[Hashable, dict[Hashable, _PeerState]] = {}
        self._running = False
        metrics = sim.metrics
        self._m_sent = metrics.counter("membership.gossip_sent")
        self._m_merged = metrics.counter("membership.heartbeats_merged")
        self._m_transitions = metrics.counter("membership.transitions")
        self._g_nodes = metrics.gauge("membership.nodes")
        self._g_suspect = metrics.gauge("membership.suspect")
        self._g_dead = metrics.gauge("membership.dead")

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> None:
        """Start monitoring ``node`` (a live join)."""
        if node.node_id in self._nodes:
            return
        self._nodes[node.node_id] = node
        self._counters[node.node_id] = 0
        self._views[node.node_id] = {}
        node.gossip = self
        self._g_nodes.set(len(self._nodes))

    def forget(self, node_id: Hashable) -> None:
        """Stop monitoring ``node_id`` and drop it from every view
        (a deliberate decommission, not a failure)."""
        node = self._nodes.pop(node_id, None)
        if node is None:
            return
        node.gossip = None
        self._counters.pop(node_id, None)
        self._views.pop(node_id, None)
        for view in self._views.values():
            view.pop(node_id, None)
        self._g_nodes.set(len(self._nodes))

    def watch(self, store: Any) -> None:
        """Monitor every current server node of ``store``."""
        for node_id in store.server_ids():
            self.add_node(store.network.node(node_id))

    # ------------------------------------------------------------------
    # Pacemaker
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.sim.schedule_daemon(INTERVAL, self._tick)

    def stop(self) -> None:
        self._running = False

    def _tick(self) -> None:
        if not self._running:
            return
        for node_id in list(self._nodes):
            node = self._nodes.get(node_id)
            if node is None or node.crashed:
                continue
            self._counters[node_id] += 1
            view = self._views[node_id]
            heartbeats = {node_id: self._counters[node_id]}
            for peer_id, state in view.items():
                heartbeats[peer_id] = state.counter
            peers = [p for p in self._nodes if p != node_id]
            if not peers:
                continue
            targets = self.rng.sample(peers, min(FANOUT, len(peers)))
            for target in targets:
                node.send(target, GossipMsg(dict(heartbeats)))
                self._m_sent.inc()
        self._sweep()
        self.sim.schedule_daemon(INTERVAL, self._tick)

    # ------------------------------------------------------------------
    # Receive path (via ServerNode.handle_GossipMsg)
    # ------------------------------------------------------------------
    def on_gossip(self, node: Node, src: Hashable, msg: GossipMsg) -> None:
        view = self._views.get(node.node_id)
        if view is None:
            return  # forgotten while the message was in flight
        now = self.sim.now
        for peer_id, counter in msg.heartbeats.items():
            if peer_id == node.node_id or peer_id not in self._nodes:
                continue
            state = view.get(peer_id)
            if state is None:
                state = view[peer_id] = _PeerState()
            if counter > state.counter:
                state.counter = counter
                state.detector.heartbeat(now)
                self._m_merged.inc()

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def _classify(self, phi: float) -> str:
        if phi >= DEAD_PHI:
            return DEAD
        if phi >= SUSPECT_PHI:
            return SUSPECT
        return ALIVE

    def _sweep(self) -> None:
        """Re-evaluate every (observer, peer) status; annotate and
        count transitions; refresh the aggregate gauges."""
        now = self.sim.now
        for observer_id in self._views:
            observer = self._nodes[observer_id]
            if observer.crashed:
                continue
            for peer_id, state in self._views[observer_id].items():
                status = self._classify(state.detector.phi(now))
                if status != state.status:
                    self._m_transitions.inc()
                    self.sim.annotate(
                        "membership", observer=observer_id, node=peer_id,
                        status=status,
                        phi=round(state.detector.phi(now), 3),
                    )
                    state.status = status
        statuses = self.statuses()
        self._g_suspect.set(
            sum(1 for s in statuses.values() if s == SUSPECT))
        self._g_dead.set(sum(1 for s in statuses.values() if s == DEAD))

    def view(self, observer_id: Hashable) -> dict[Hashable, str]:
        """One observer's statuses for every peer it has heard of."""
        now = self.sim.now
        return {
            peer_id: self._classify(state.detector.phi(now))
            for peer_id, state in self._views[observer_id].items()
        }

    def statuses(self) -> dict[Hashable, str]:
        """Aggregated cluster view: a node's status is the worst that a
        majority of non-crashed observers assign it (an isolated
        observer cannot single-handedly declare the cluster dead)."""
        observers = [
            oid for oid, node in self._nodes.items() if not node.crashed
        ]
        out: dict[Hashable, str] = {}
        now = self.sim.now
        for node_id in self._nodes:
            votes = []
            for observer_id in observers:
                if observer_id == node_id:
                    continue
                state = self._views[observer_id].get(node_id)
                if state is not None:
                    votes.append(self._classify(state.detector.phi(now)))
            if not votes:
                out[node_id] = ALIVE
                continue
            majority = (len(votes) // 2) + 1
            if sum(1 for v in votes if v == DEAD) >= majority:
                out[node_id] = DEAD
            elif sum(1 for v in votes if v != ALIVE) >= majority:
                out[node_id] = SUSPECT
            else:
                out[node_id] = ALIVE
        return out

    def suspected(self) -> list[Hashable]:
        """Nodes a majority currently considers suspect or dead."""
        return sorted(
            (n for n, s in self.statuses().items() if s != ALIVE), key=str
        )
