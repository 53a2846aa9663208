"""Consistent hash ring with virtual nodes (Dynamo/Cassandra style).

Keys are placed on a ring of hashed tokens; a key's **preference
list** is the next N *distinct physical nodes* clockwise from the
key's position.  Virtual nodes smooth the load distribution.  The ring
is also what sloppy quorums walk to find fallback replicas.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Hashable


def stable_hash(value: object) -> int:
    """Deterministic 64-bit hash (Python's builtin hash is salted)."""
    digest = hashlib.blake2b(
        repr(value).encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


class HashRing:
    """Consistent hashing with ``vnodes`` tokens per physical node."""

    def __init__(self, nodes: list[Hashable], vnodes: int = 16) -> None:
        if not nodes:
            raise ValueError("ring needs at least one node")
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = vnodes
        #: Bumped on every membership change.  Routers that cache
        #: ring-derived state (per-shard sessions, walk results copied
        #: out of the ring) compare against this to revalidate.
        self.version = 0
        self._tokens: list[tuple[int, Hashable]] = []
        self._nodes: list[Hashable] = []
        # key -> full distinct-node walk order.  The walk is a pure
        # function of (key, membership), and every request hashes its
        # key and walks the ring, so this cache turns the per-request
        # blake2b + token scan into a dict hit.  Invalidated on any
        # membership change.
        self._walk_cache: dict[Hashable, tuple[Hashable, ...]] = {}
        for node in nodes:
            self.add_node(node)

    def add_node(self, node: Hashable) -> None:
        if node in self._nodes:
            raise ValueError(f"node {node!r} already on ring")
        self._nodes.append(node)
        for i in range(self.vnodes):
            token = stable_hash((node, i))
            bisect.insort(self._tokens, (token, node))
        self._walk_cache.clear()
        self.version += 1

    def remove_node(self, node: Hashable) -> None:
        if node not in self._nodes:
            raise ValueError(f"node {node!r} not on ring")
        if len(self._nodes) == 1:
            # An empty ring would make every later coordinator() call
            # die with an opaque IndexError; fail at the cause instead.
            raise ValueError(
                f"cannot remove {node!r}: it is the last node on the ring"
            )
        self._nodes.remove(node)
        self._tokens = [(t, n) for t, n in self._tokens if n != node]
        self._walk_cache.clear()
        self.version += 1

    @property
    def nodes(self) -> list[Hashable]:
        return list(self._nodes)

    def _walk_from(self, key: Hashable) -> tuple[Hashable, ...]:
        """Physical nodes clockwise from the key's token, distinct,
        cycling over the ring until every node is in.  Cached per key."""
        cached = self._walk_cache.get(key)
        if cached is not None:
            return cached
        if not self._tokens:
            return ()
        token = stable_hash(key)
        start = bisect.bisect_right(self._tokens, (token, _SENTINEL))
        out: list[Hashable] = []
        seen: set[Hashable] = set()
        count = len(self._tokens)
        for offset in range(count):
            _t, node = self._tokens[(start + offset) % count]
            if node not in seen:
                seen.add(node)
                out.append(node)
                if len(out) == len(self._nodes):
                    break  # every node placed: the rest are repeats
        walk = tuple(out)
        self._walk_cache[key] = walk
        return walk

    def preference_list(self, key: Hashable, n: int) -> list[Hashable]:
        """The key's N home replicas (fewer if the ring is smaller)."""
        return list(self._walk_from(key)[:n])

    def fallbacks(self, key: Hashable, exclude: set) -> list[Hashable]:
        """Ring walk in key order skipping ``exclude`` — the
        sloppy-quorum stand-ins for unreachable home replicas."""
        return [node for node in self._walk_from(key) if node not in exclude]

    def coordinator(self, key: Hashable) -> Hashable:
        """The key's first home node — the default coordinator."""
        return self._walk_from(key)[0]


class _Sentinel:
    """Greater than every node id, for bisect on (token, node) pairs."""

    def __lt__(self, other: object) -> bool:
        return False

    def __gt__(self, other: object) -> bool:
        return True


_SENTINEL = _Sentinel()
