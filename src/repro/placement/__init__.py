"""First-class geo-placement: regions and locality routing.

The tutorial's consistency spectrum is an *operator's* menu: which
replica a read may touch, and at what distance, is a per-read choice.
That choice only exists if the stack knows where everything is.  This
package makes placement explicit:

* :class:`Placement` — a registry mapping node ids to regions (the
  sites of a :class:`~repro.sim.topology.Topology`), with a
  deterministic spread policy, a live WAN latency model, and
  per-region :class:`LocalityMap` views used by clients to order
  endpoints.
* :func:`spread_placement` — the pure placement policy (round-robin
  over regions), kept free of state so its invariants can be
  property-tested directly.

Everything is deterministic: placement is a pure function of the node
id list and the region list, never of hashing or RNG state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Sequence

from ..errors import NetworkError
from ..sim.network import MatrixLatency
from ..sim.topology import Topology


def spread_placement(
    node_ids: Sequence[Hashable],
    regions: Sequence[str],
    start: int = 0,
) -> dict[Hashable, str]:
    """Deterministic region spread: round-robin, staggered by ``start``.

    Consecutive nodes land in consecutive regions, so any ``k``
    replicas span ``min(k, len(regions))`` regions — the invariant the
    property tests pin down.  ``start`` rotates the first region so
    that (say) shard *i*'s primary lands in region ``i % n`` instead
    of every shard leading from the same region.
    """
    if not regions:
        raise NetworkError("cannot spread nodes: no regions given")
    return {
        node: regions[(start + i) % len(regions)]
        for i, node in enumerate(node_ids)
    }


class LocalityMap:
    """A client-side view of the world from one region.

    Stable-sorts endpoint lists by WAN delay from the origin region so
    same-region replicas are tried first.  The sort is *stable*:
    protocol-chosen preference (coordinator first, home replica first)
    survives among equidistant endpoints.
    """

    __slots__ = ("placement", "origin")

    def __init__(self, placement: "Placement", origin: str) -> None:
        self.placement = placement
        self.origin = origin

    def delay_to(self, node_id: Hashable) -> float:
        """One-way WAN delay from the origin to a node's region."""
        return self.placement.delay(
            self.origin, self.placement.region_of(node_id)
        )

    def is_local(self, node_id: Hashable) -> bool:
        """Whether the node sits in the origin region."""
        return self.placement.region_of(node_id) == self.origin

    def order(self, endpoints: Sequence[Hashable]) -> list:
        """Endpoints stable-sorted nearest-first from the origin."""
        return sorted(endpoints, key=self.delay_to)

    def nearest(self, endpoints: Sequence[Hashable]) -> Hashable:
        """The single nearest endpoint (first of :meth:`order`)."""
        if not endpoints:
            raise NetworkError("no endpoints to pick from")
        return self.order(endpoints)[0]


@dataclass
class Placement:
    """Node-to-region placement over a WAN :class:`Topology`.

    ``default_region`` catches auxiliary nodes created lazily deep in
    the protocol stack (forwarders, checker clients) that no one
    placed explicitly; without it an unplaced node raises at first
    lookup, which catches placement bugs early in tests.
    """

    topology: Topology
    default_region: str | None = None
    _region_of: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if (self.default_region is not None
                and self.default_region not in self.region_names):
            raise NetworkError(
                f"default region {self.default_region!r} not declared"
            )

    # -- declaration ---------------------------------------------------
    @property
    def region_names(self) -> tuple[str, ...]:
        return self.topology.sites

    # -- assignment ----------------------------------------------------
    def place(self, node_id: Hashable, region: str) -> None:
        """Pin a node to a region.

        Re-placing an already-placed node is allowed and overrides —
        elasticity moves replicas between regions.
        """
        if region not in self.region_names:
            raise NetworkError(f"unknown region {region!r}")
        self._region_of[node_id] = region

    def spread(self, node_ids: Sequence[Hashable], start: int = 0) -> None:
        """Place a replica set with :func:`spread_placement`."""
        for node_id, region in spread_placement(
            node_ids, self.region_names, start=start
        ).items():
            self.place(node_id, region)

    # -- lookup --------------------------------------------------------
    def region_of(self, node_id: Hashable) -> str:
        region = self._region_of.get(node_id, self.default_region)
        if region is None:
            raise NetworkError(
                f"node {node_id!r} has no region (and no default_region)"
            )
        return region

    def is_placed(self, node_id: Hashable) -> bool:
        return node_id in self._region_of

    def nodes_in(self, region: str, within: Iterable | None = None) -> list:
        """Node ids placed in ``region``, in placement order.

        ``within`` restricts to a candidate set (e.g. one shard's
        replicas) while keeping placement order.
        """
        members = (
            self._region_of.items() if within is None
            else ((n, self.region_of(n)) for n in within)
        )
        return [n for n, r in members if r == region]

    def delay(self, region_a: str, region_b: str) -> float:
        """One-way delay between two regions (the topology's)."""
        return self.topology.delay(region_a, region_b)

    # -- derived views -------------------------------------------------
    def latency_model(self, jitter: float = 0.1) -> MatrixLatency:
        """A WAN latency model resolving nodes through *this* placement.

        The ``site_of`` hook is a live closure over the placement, not
        a frozen snapshot: client nodes created lazily (sessions,
        forwarders) and placed afterwards still resolve — as long as
        they are placed before their first message on a link.
        """
        matrix: dict[tuple[str, str], float] = {}
        for a in self.region_names:
            for b in self.region_names:
                matrix[(a, b)] = self.delay(a, b)
        return MatrixLatency(matrix, site_of=self.region_of, jitter=jitter)

    def locality(self, origin: str) -> LocalityMap:
        """The world as seen from ``origin`` (must be a known region)."""
        if origin not in self.region_names:
            raise NetworkError(f"unknown region {origin!r}")
        return LocalityMap(self, origin)


__all__ = [
    "LocalityMap",
    "Placement",
    "spread_placement",
]
