"""Protocol registry: every replication mechanism, by name.

The taxonomy's mechanism axis as a lookup table::

    from repro.api import registry

    spec = registry.get("quorum")
    store = spec.build(sim, network, nodes=5, n=3, r=2, w=2)
    session = store.session("alice")

Each protocol's store class — its replica group in
:mod:`repro.replication` or :mod:`repro.sla`, or the cache tier's
factory — registers itself where it is defined, when :mod:`repro.api`
imports those packages; ``registry.names()`` is the authoritative list
the CLI's ``repro protocols`` command prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ..sim import Network, Simulator
from .store import ConsistentStore, StoreCapabilities

_REGISTRY: dict[str, "StoreSpec"] = {}


@dataclass(frozen=True)
class StoreSpec:
    """One registered protocol: its capabilities and a factory."""

    name: str
    capabilities: StoreCapabilities
    factory: Callable[..., ConsistentStore]

    def build(
        self,
        sim: Simulator,
        network: Network | None = None,
        **kwargs: Any,
    ) -> ConsistentStore:
        """Construct a ready-to-use store on ``sim``.

        ``network`` defaults to a fresh loss-free :class:`Network`.
        Common kwargs every replica group accepts (see
        :class:`repro.replication.ReplicaGroup`): ``nodes`` (group
        size), ``node_ids`` (explicit ids), the capacity knobs
        (``service_time`` …, see
        :class:`repro.replication.common.ServerNode`), ``retry`` (a
        store-wide :class:`repro.rpc.RetryPolicy` applied to every
        session; sessions can override with ``session(retry=...)``) and
        ``placement``.  The rest are the protocol's own.
        """
        if network is None:
            network = Network(sim)
        return self.factory(sim, network, **kwargs)


def register(
    capabilities: StoreCapabilities,
) -> Callable[[Callable[..., ConsistentStore]], Callable[..., ConsistentStore]]:
    """Class/factory decorator adding a store to the registry."""

    def wrap(factory: Callable[..., ConsistentStore]):
        if capabilities.name in _REGISTRY:
            raise ValueError(f"protocol {capabilities.name!r} already registered")
        if isinstance(factory, type):
            factory.capabilities = capabilities
        _REGISTRY[capabilities.name] = StoreSpec(
            capabilities.name, capabilities, factory
        )
        return factory

    return wrap


def get(name: str) -> StoreSpec:
    """Look up a protocol by registry name."""
    spec = _REGISTRY.get(name)
    if spec is None:
        raise KeyError(
            f"unknown protocol {name!r}; registered: {', '.join(names())}"
        )
    return spec


def build(
    name: str,
    sim: Simulator,
    network: Network | None = None,
    **kwargs: Any,
) -> ConsistentStore:
    """Shorthand for ``get(name).build(...)``."""
    return get(name).build(sim, network, **kwargs)


def names() -> list[str]:
    """All registered protocol names, sorted."""
    return sorted(_REGISTRY)


def specs() -> list[StoreSpec]:
    """All registered specs, sorted by name."""
    return [_REGISTRY[name] for name in names()]
