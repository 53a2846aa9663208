"""Anti-entropy gossip replication.

The mechanism that puts the *eventual* in eventual consistency: every
replica accepts writes locally (always available), and a background
process periodically reconciles random pairs of replicas until all
copies agree.  Two reconciliation strategies:

* ``"full"``   — ship the whole key→(value, stamp) state; simple,
  bandwidth ∝ database size.
* ``"merkle"`` — exchange Merkle summaries first and ship only the
  keys in differing leaf buckets; bandwidth ∝ divergence.

Gossip is push–pull: the initiator sends its summary/state, the peer
merges and responds with what the initiator is missing.  E4 measures
convergence time vs. replica count, fan-out, and sync interval, and
the Merkle-vs-full bandwidth ablation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable

from ..clocks import LamportClock, LamportStamp
from ..errors import TimeoutError as ReproTimeoutError
from ..sim import Network, Node, Simulator
from .merkle import MerkleTree, build_tree, keys_in_buckets


@dataclass
class FullState:
    entries: list  # [(key, value, LamportStamp)]
    reply_expected: bool


@dataclass
class MerkleSummary:
    leaf_hashes: tuple
    depth: int
    reply_expected: bool


@dataclass
class BucketRequest:
    buckets: list
    summary: "MerkleSummary"


@dataclass
class BucketEntries:
    entries: list  # [(key, value, LamportStamp)]
    buckets_wanted: list  # buckets the sender wants back (pull half)


class GossipReplica(Node):
    """A replica that accepts local writes and gossips state."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: Hashable,
        cluster: "GossipCluster",
    ) -> None:
        super().__init__(sim, network, node_id)
        self.cluster = cluster
        self.clock = LamportClock(node_id)
        self.data: dict[Hashable, tuple[Any, LamportStamp]] = {}
        if cluster.interval is not None:
            self.every(cluster.interval, self.gossip_once, jitter=0.5)

    # -- local API -----------------------------------------------------
    def write(self, key: Hashable, value: Any) -> LamportStamp:
        """Local write; visible here now, elsewhere eventually."""
        stamp = self.clock.tick()
        self._apply(key, value, stamp)
        return stamp

    def read(self, key: Hashable) -> Any:
        value, _stamp = self.data.get(key, (None, None))
        return value

    def _apply(self, key: Hashable, value: Any, stamp: LamportStamp) -> bool:
        self.clock.observe(stamp)
        current = self.data.get(key)
        if current is None or stamp > current[1]:
            self.data[key] = (value, stamp)
            return True
        return False

    def _merge_entries(self, entries: list) -> int:
        changed = 0
        for key, value, stamp in entries:
            if self._apply(key, value, stamp):
                changed += 1
        if changed:
            self.cluster._c_entries_merged.inc(changed)
        return changed

    def snapshot(self) -> dict:
        return {key: value for key, (value, _stamp) in self.data.items()}

    # -- gossip ----------------------------------------------------------
    def gossip_once(self) -> None:
        """Start one push–pull round with ``fanout`` random peers."""
        peers = [
            node_id for node_id in self.cluster.node_ids
            if node_id != self.node_id
        ]
        if not peers:
            return
        fanout = min(self.cluster.fanout, len(peers))
        chosen = self.sim.rng.sample(peers, fanout)
        for peer in chosen:
            self.cluster._c_rounds_started.inc()
            self.sim.annotate("gossip_round", initiator=self.node_id,
                              peer=peer, strategy=self.cluster.strategy)
            if self.cluster.strategy == "full":
                self.send(peer, FullState(self._all_entries(), reply_expected=True))
            else:
                tree = self._tree()
                self.send(
                    peer,
                    MerkleSummary(tree.leaf_hashes, tree.depth, reply_expected=True),
                )

    def _all_entries(self) -> list:
        return [
            (key, value, stamp) for key, (value, stamp) in self.data.items()
        ]

    def _tree(self) -> MerkleTree:
        versions = {key: stamp for key, (_value, stamp) in self.data.items()}
        return build_tree(versions, depth=self.cluster.merkle_depth)

    # -- handlers: full-state strategy -------------------------------------
    def handle_FullState(self, src: Hashable, msg: FullState) -> None:
        self._merge_entries(msg.entries)
        if msg.reply_expected:
            self.send(src, FullState(self._all_entries(), reply_expected=False))

    # -- handlers: merkle strategy -----------------------------------------
    def handle_MerkleSummary(self, src: Hashable, msg: MerkleSummary) -> None:
        mine = self._tree()
        theirs = MerkleTree(msg.depth, tuple(msg.leaf_hashes), 0)
        buckets = [
            index
            for index, (a, b) in enumerate(
                zip(mine.leaf_hashes, theirs.leaf_hashes)
            )
            if a != b
        ]
        if not buckets:
            return
        # Ask for the differing buckets, carrying our summary so the
        # peer can send exactly what we lack (pull), and we follow up
        # with what they lack (push).
        self.send(
            src,
            BucketRequest(
                buckets,
                MerkleSummary(mine.leaf_hashes, mine.depth, reply_expected=False),
            ),
        )

    def handle_BucketRequest(self, src: Hashable, msg: BucketRequest) -> None:
        wanted = set(msg.buckets)
        entries = self._entries_in_buckets(wanted)
        self.send(src, BucketEntries(entries, buckets_wanted=sorted(wanted)))

    def handle_BucketEntries(self, src: Hashable, msg: BucketEntries) -> None:
        self._merge_entries(msg.entries)
        if msg.buckets_wanted:
            entries = self._entries_in_buckets(set(msg.buckets_wanted))
            self.send(src, BucketEntries(entries, buckets_wanted=[]))

    def _entries_in_buckets(self, buckets: set) -> list:
        versions = {key: stamp for key, (_value, stamp) in self.data.items()}
        keys = keys_in_buckets(versions, buckets, self.cluster.merkle_depth)
        return [(key, self.data[key][0], self.data[key][1]) for key in keys]


class GossipCluster:
    """N gossiping replicas with a pluggable reconciliation strategy."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        nodes: int = 8,
        interval: float | None = 20.0,
        fanout: int = 1,
        strategy: str = "full",
        merkle_depth: int = 6,
        node_ids: list[Hashable] | None = None,
    ) -> None:
        if strategy not in ("full", "merkle"):
            raise ValueError("strategy must be 'full' or 'merkle'")
        if fanout < 1:
            raise ValueError("fanout must be >= 1")
        self.sim = sim
        self.network = network
        self.interval = interval
        self.fanout = fanout
        self.strategy = strategy
        self.merkle_depth = merkle_depth
        ids = node_ids or [f"g{i}" for i in range(nodes)]
        self.node_ids = list(ids)
        self._c_rounds_started = sim.metrics.counter("gossip.rounds_started")
        self._c_entries_merged = sim.metrics.counter("gossip.entries_merged")
        self.replicas = [
            GossipReplica(sim, network, node_id, self) for node_id in ids
        ]

    def replica(self, index: int) -> GossipReplica:
        return self.replicas[index]

    def snapshots(self) -> list[dict]:
        return [replica.snapshot() for replica in self.replicas]

    def converged(self) -> bool:
        snapshots = self.snapshots()
        return all(snapshot == snapshots[0] for snapshot in snapshots[1:])

    def run_until_converged(
        self, poll: float = 5.0, deadline: float = 120_000.0
    ) -> float:
        """Drive the simulator until all replicas agree; returns the
        convergence time (sim.now).  Raises on deadline."""
        start_deadline = self.sim.now + deadline
        while self.sim.now < start_deadline:
            if self.converged():
                return self.sim.now
            self.sim.run(until=self.sim.now + poll)
        raise ReproTimeoutError(f"not converged within {deadline}ms")
