"""Merkle trees for anti-entropy difference detection.

Exchanging full states costs O(database) per sync even when replicas
differ in one key.  Dynamo/Cassandra hash the key space into a Merkle
tree: replicas compare roots, descend only into differing subtrees,
and transfer just the keys in differing leaves.  Here the tree is
built over ``2**depth`` leaf buckets of a key→fingerprint map.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Hashable

from .ring import stable_hash


def fingerprint(value: object) -> int:
    """Deterministic fingerprint of a stored version."""
    return stable_hash(repr(value))


def _combine(left: int, right: int) -> int:
    digest = hashlib.blake2b(digest_size=8)
    digest.update(left.to_bytes(8, "big"))
    digest.update(right.to_bytes(8, "big"))
    return int.from_bytes(digest.digest(), "big")


@dataclass(frozen=True)
class MerkleTree:
    """An immutable Merkle tree over leaf-bucket hashes."""

    depth: int
    leaf_hashes: tuple[int, ...]
    root: int


def bucket_of(key: Hashable, depth: int) -> int:
    return stable_hash(key) % (1 << depth)


def build_tree(entries: dict[Hashable, object], depth: int = 6) -> MerkleTree:
    """Build a tree from key → fingerprintable version objects."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    leaves = 1 << depth
    buckets: list[list[tuple[str, int]]] = [[] for _ in range(leaves)]
    for key, version in entries.items():
        buckets[bucket_of(key, depth)].append((repr(key), fingerprint(version)))
    leaf_hashes = []
    for bucket in buckets:
        digest = hashlib.blake2b(digest_size=8)
        for key_repr, print_ in sorted(bucket):
            digest.update(key_repr.encode("utf-8"))
            digest.update(print_.to_bytes(8, "big"))
        leaf_hashes.append(int.from_bytes(digest.digest(), "big"))
    level = leaf_hashes
    while len(level) > 1:
        level = [
            _combine(level[i], level[i + 1]) for i in range(0, len(level), 2)
        ]
    return MerkleTree(depth, tuple(leaf_hashes), level[0])


def keys_in_buckets(
    entries: dict[Hashable, object], buckets: set[int], depth: int
) -> list[Hashable]:
    """The keys of ``entries`` that fall in the given leaf buckets."""
    return [
        key for key in entries if bucket_of(key, depth) in buckets
    ]
