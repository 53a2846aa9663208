"""Replication protocols — the mechanism axis of the taxonomy.

* :class:`PrimaryBackupCluster` — master/slave, async/sync/quorum acks.
* :class:`DynamoCluster` — partial quorums, sloppy quorums, hinted
  handoff, read repair on a consistent hash ring (LWW conflicts).
* :class:`SiblingDynamoCluster` — the same engine bound to the other
  conflict strategy: multi-value (sibling) conflicts and
  dotted-version-vector contexts.
* :class:`GossipCluster` — anti-entropy (full-state or Merkle).
* :class:`BayouCluster` — tentative/committed writes with rollback
  and primary commit order (Bayou).
* :class:`MultiPaxosCluster` — consensus-replicated KV state machine.
* :class:`TimelineCluster` — PNUTS per-record mastership.
* :class:`CausalCluster` — COPS-style causal broadcast KV.
* :class:`ChainCluster` — chain replication.

The five single-group networked protocols (primary–backup, chain,
timeline, causal, Multi-Paxos) differ only in mechanism: each writes
its wire messages, its replica's handlers and its client's verbs over
the skeleton in :mod:`repro.replication.common` —
:class:`GroupClient` (the session-bound client node),
:class:`ReplicaGroup` (ids, replicas, ``connect``,
``snapshots``) and, under primary–backup, chain and timeline,
:class:`VersionedReplica` (the highest-version-wins store) with
:class:`VersionedGroup` (its catch-up sweep).
"""

from .anti_entropy import GossipCluster, GossipReplica
from .bayou import BayouCluster, BayouReplica, BayouWrite
from .causal_store import CausalClient, CausalCluster, CausalReplica
from .chain import ChainClient, ChainCluster, ChainReplica
from .common import (
    ClientNode,
    GroupClient,
    ReplicaGroup,
    Reply,
    Request,
    ServerNode,
    VersionedGroup,
    VersionedReplica,
)
from .merkle import MerkleTree, build_tree, keys_in_buckets
from .multipaxos import (
    GetCmd,
    MultiPaxosCluster,
    PaxosClient,
    PaxosReplica,
    PutCmd,
)
from .primary_backup import PBClient, PBReplica, PrimaryBackupCluster
from .quorum import (
    DynamoClient,
    DynamoCluster,
    DynamoNode,
    SiblingDynamoCluster,
)
from .ring import HashRing, stable_hash
from .timeline import TimelineClient, TimelineCluster, TimelineReplica

__all__ = [
    "ClientNode",
    "CausalCluster",
    "CausalClient",
    "CausalReplica",
    "ServerNode",
    "GroupClient",
    "ReplicaGroup",
    "VersionedGroup",
    "VersionedReplica",
    "Request",
    "Reply",
    "PrimaryBackupCluster",
    "PBClient",
    "PBReplica",
    "DynamoCluster",
    "DynamoClient",
    "SiblingDynamoCluster",
    "DynamoNode",
    "HashRing",
    "stable_hash",
    "GossipCluster",
    "GossipReplica",
    "BayouCluster",
    "BayouReplica",
    "BayouWrite",
    "MerkleTree",
    "build_tree",
    "keys_in_buckets",
    "MultiPaxosCluster",
    "PaxosClient",
    "PaxosReplica",
    "PutCmd",
    "GetCmd",
    "TimelineCluster",
    "TimelineClient",
    "TimelineReplica",
    "ChainCluster",
    "ChainClient",
    "ChainReplica",
]
