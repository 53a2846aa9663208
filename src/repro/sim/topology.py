"""Named geo-replication topologies.

The tutorial's motivating setting is geo-replication: replicas in
multiple datacenters, clients near one of them, and WAN round trips
dominating latency.  This module provides a :class:`Topology` value
object plus a preset with realistic inter-datacenter one-way delays
(derived from published RTT tables; all values in milliseconds).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

from ..errors import NetworkError
from .network import MatrixLatency


#: One-way delay (ms) between two nodes in the same datacenter.
INTRA_SITE = 0.5


@dataclass(frozen=True)
class Topology:
    """A set of named sites and one-way delays between them.

    :data:`INTRA_SITE` is the one-way delay between two nodes in the
    same datacenter.  Delays are looked up directed first, so an entry for
    ``(a, b)`` and a different one for ``(b, a)`` model an asymmetric
    link; a single entry serves both directions (the symmetric common
    case).
    """

    name: str
    sites: tuple[str, ...]
    delays: dict[tuple[str, str], float] = field(hash=False)

    def delay(self, a: str, b: str) -> float:
        """One-way delay between sites ``a`` and ``b``."""
        if a == b:
            return INTRA_SITE
        value = self.delays.get((a, b), self.delays.get((b, a)))
        if value is None:
            raise NetworkError(f"no delay between {a!r} and {b!r} in {self.name}")
        return value

    def latency_model(
        self,
        site_of: dict[Hashable, str],
        jitter: float = 0.1,
    ) -> MatrixLatency:
        """Build a :class:`MatrixLatency` for nodes placed at sites.

        ``site_of`` maps node id → site name; unknown nodes raise at
        send time, which catches placement bugs early.
        """
        for node, site in site_of.items():
            if site not in self.sites:
                raise NetworkError(f"node {node!r} placed at unknown site {site!r}")
        matrix: dict[tuple[str, str], float] = {}
        for a in self.sites:
            for b in self.sites:
                matrix[(a, b)] = self.delay(a, b)
        mapping = dict(site_of)
        return MatrixLatency(matrix, site_of=lambda n: mapping[n], jitter=jitter)


def symmetric_delays(
    pairs: dict[tuple[str, str], float],
) -> dict[tuple[str, str], float]:
    """Mirror one-way delays both ways — the common case when building
    a custom :class:`Topology` from published RTT tables."""
    out = dict(pairs)
    for (a, b), v in pairs.items():
        out[(b, a)] = v
    return out


#: Three sites, one per continent — used by the Paxos scaling experiment.
THREE_CONTINENTS = Topology(
    name="three-continents",
    sites=("us-east", "eu", "asia"),
    delays=symmetric_delays(
        {
            ("us-east", "eu"): 40.0,
            ("us-east", "asia"): 110.0,
            ("eu", "asia"): 120.0,
        }
    ),
)
