"""The nemesis: executes a :class:`~repro.chaos.FaultPlan` against a store.

Jepsen's nemesis re-imagined for a deterministic simulator: faults are
ordinary simulation events scheduled from the plan, and every random
choice (which node crashes, which side a client lands on, how much
skew) comes from the nemesis's **own** seeded RNG — never ``sim.rng``
— so installing a nemesis does not perturb the workload's random
sequence, and the same ``(plan, seed)`` replays bit-identically.

Every fault increments a ``chaos.<fault>`` counter and records a
``chaos`` trace annotation, so fault timing is visible in trace
timelines and is part of the run's fingerprint.
"""

from __future__ import annotations

import random
from typing import Any, Hashable

from ..errors import SimulationError
from .plan import FaultPlan, FaultStep


class Nemesis:
    """Schedules a plan's faults as simulation events.

    Usage::

        nemesis = Nemesis(PLANS["partitions"], seed=42)
        nemesis.install(store)       # before driver.run()
        ...run the workload...
        nemesis.stop()
        nemesis.heal_all()           # then settle + check
    """

    def __init__(self, plan: FaultPlan, seed: int | None = None) -> None:
        self.plan = plan
        self.seed = seed if seed is not None else plan.seed
        self.rng = random.Random(self.seed)
        self.store: Any = None
        self.crashed: set[Hashable] = set()
        self.skewed: set[Hashable] = set()
        self._events: list = []
        self._stopped = False
        self._installed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def install(self, store: Any) -> None:
        """Attach to ``store`` and schedule every step (daemon events:
        the nemesis never keeps the simulation alive by itself).  Step
        times are relative to the install instant."""
        if self._installed:
            raise SimulationError("nemesis already installed")
        self._installed = True
        self.store = store
        self.sim = store.sim
        self.network = store.network
        self._base = self.sim.now
        self._steps_fired = self.sim.metrics.counter("chaos.steps")
        for plan_step in self.plan.steps:
            delay = plan_step.at if plan_step.at is not None \
                else plan_step.every
            self._events.append(
                self.sim.schedule_daemon(delay, self._fire, plan_step)
            )

    def stop(self) -> None:
        """Cancel every pending fault (fired ones stay fired)."""
        self._stopped = True
        for event in self._events:
            event.cancel()
        self._events.clear()

    def heal_all(self) -> None:
        """Undo every standing fault: heal the partition, clear link
        faults, zero clock skew, recover every node the nemesis
        crashed.  In-flight drops stay dropped — healing is not
        retroactive delivery."""
        self.network.heal()
        self.network.clear_link_faults()
        for node_id in sorted(self.skewed, key=str):
            self.network.node(node_id).clock_offset = 0.0
        self.skewed.clear()
        for node_id in sorted(self.crashed, key=str):
            self.store.recover(node_id)
        self.crashed.clear()
        self.sim.annotate("chaos", fault="heal_all")

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _fire(self, plan_step: FaultStep) -> None:
        if self._stopped:
            return
        self._steps_fired.inc()
        self.sim.metrics.counter(f"chaos.{plan_step.fault}").inc()
        getattr(self, f"_do_{plan_step.fault}")(plan_step)
        if plan_step.every is not None:
            elapsed = self.sim.now - self._base  # plan times are relative
            if plan_step.until is None or \
                    elapsed + plan_step.every <= plan_step.until:
                self._events.append(
                    self.sim.schedule_daemon(plan_step.every, self._fire,
                                             plan_step)
                )

    # ------------------------------------------------------------------
    # Target selection
    # ------------------------------------------------------------------
    def _servers(self) -> list[Hashable]:
        return list(self.store.server_ids())

    def _alive_servers(self) -> list[Hashable]:
        return [s for s in self._servers() if s not in self.crashed]

    def _coordinator(self) -> Hashable | None:
        """The store's distinguished node, where the protocol has one:
        probes the store for a Paxos leader, a primary, or a chain
        head.  ``None`` for leaderless protocols."""
        for attr in ("leader", "primary", "head"):
            node = getattr(self.store, attr, None)
            if node is not None and hasattr(node, "node_id"):
                return node.node_id
        return None

    def _pick_target(self, plan_step: FaultStep) -> Hashable | None:
        target = plan_step.param("target", "random")
        alive = self._alive_servers()
        if not alive:
            return None
        if target == "coordinator":
            coordinator = self._coordinator()
            if coordinator is not None and coordinator in alive:
                return coordinator
            return self.rng.choice(alive)
        if target == "random":
            return self.rng.choice(alive)
        return target if target in alive else None

    # ------------------------------------------------------------------
    # Faults
    # ------------------------------------------------------------------
    def _do_partition(self, plan_step: FaultStep) -> None:
        shape = plan_step.param("shape", "halves")
        servers = self._servers()
        if shape == "halves":
            split = (len(servers) + 1) // 2
            left, right = list(servers[:split]), list(servers[split:])
            # Every other network node (clients, forwarders) picks a
            # side — partition() would otherwise strand them in the
            # implicit leftover group, unable to reach any server.
            for node_id in self.network.node_ids:
                if node_id in servers:
                    continue
                (left if self.rng.random() < 0.5 else right).append(node_id)
            self.network.partition(left, right)
        elif shape == "ring":
            # Only ring-adjacent server links stay up (clients keep
            # full connectivity — the ring throttles replication).
            for i, a in enumerate(servers):
                for b in servers[i + 1:]:
                    j = servers.index(b)
                    if (j - i) % len(servers) in (1, len(servers) - 1):
                        continue
                    self.network.set_link_fault(a, b, down=True)
        elif shape == "bridge":
            # Two halves that can only talk through one bridge node.
            bridge = self.rng.choice(servers)
            rest = [s for s in servers if s != bridge]
            split = (len(rest) + 1) // 2
            left, right = rest[:split], rest[split:]
            for a in left:
                for b in right:
                    self.network.set_link_fault(a, b, down=True)
        else:  # pragma: no cover - plan validation rejects this
            raise SimulationError(f"unknown partition shape {shape!r}")
        self.sim.annotate("chaos", fault="partition", shape=shape)

    def _do_region_partition(self, plan_step: FaultStep) -> None:
        """Cut an entire region off the WAN: every node placed there —
        servers *and* clients — loses contact with the rest of the
        world (they still talk to each other)."""
        placement = getattr(self.store, "placement", None)
        if placement is None:
            self.sim.annotate("chaos", fault="region_partition",
                              skipped="unplaced")
            return
        region = plan_step.param("region")
        if region is None:
            region = self.rng.choice(sorted(placement.region_names))
        known = set(self.network.node_ids)
        lost = [
            node_id for node_id in placement.nodes_in(region)
            if node_id in known
        ]
        if not lost:
            self.sim.annotate("chaos", fault="region_partition",
                              region=region, skipped="empty")
            return
        # One explicit group; everything else lands in partition()'s
        # implicit rest-of-world group.
        self.network.partition(lost)
        self.sim.annotate("chaos", fault="region_partition", region=region,
                          nodes=len(lost))

    def _do_heal(self, plan_step: FaultStep) -> None:
        self.network.heal()
        self.network.clear_link_faults()
        self.sim.annotate("chaos", fault="heal")

    def _do_crash(self, plan_step: FaultStep) -> None:
        alive = self._alive_servers()
        if len(alive) <= 1:
            return  # never crash the last server standing
        target = self._pick_target(plan_step)
        if target is None:
            return
        self.store.crash(target)
        self.crashed.add(target)
        self.sim.annotate("chaos", fault="crash", node=target)

    def _do_recover(self, plan_step: FaultStep) -> None:
        target = plan_step.param("target", "all")
        if not self.crashed:
            return
        if target == "all":
            victims = sorted(self.crashed, key=str)
        elif target == "random":
            victims = [self.rng.choice(sorted(self.crashed, key=str))]
        else:
            victims = [target] if target in self.crashed else []
        for node_id in victims:
            self.store.recover(node_id)
            self.crashed.discard(node_id)
            self.sim.annotate("chaos", fault="recover", node=node_id)

    def _do_clock_skew(self, plan_step: FaultStep) -> None:
        target = plan_step.param("target")
        if target is None:
            servers = self._servers()
            if not servers:
                return
            target = self.rng.choice(servers)
        offset = plan_step.param("offset_ms")
        if offset is None:
            max_ms = plan_step.param("max_ms", 50.0)
            offset = self.rng.uniform(-max_ms, max_ms)
        self.network.node(target).clock_offset = offset
        self.skewed.add(target)
        self.sim.annotate("chaos", fault="clock_skew", node=target,
                          offset_ms=round(offset, 3))

    def _link_pair(self) -> tuple[Hashable, Hashable] | None:
        servers = self._servers()
        if len(servers) < 2:
            return None
        a, b = self.rng.sample(servers, 2)
        return a, b

    def _do_slow_link(self, plan_step: FaultStep) -> None:
        pair = self._link_pair()
        if pair is None:
            return
        a, b = pair
        extra = plan_step.param("extra_delay", 25.0)
        self.network.set_link_fault(a, b, extra_delay=extra)
        self._expire_link(plan_step, a, b)
        self.sim.annotate("chaos", fault="slow_link", a=a, b=b,
                          extra_delay=extra)

    def _do_drop(self, plan_step: FaultStep) -> None:
        pair = self._link_pair()
        if pair is None:
            return
        a, b = pair
        rate = plan_step.param("rate", 0.5)
        self.network.set_link_fault(a, b, drop_rate=rate)
        self._expire_link(plan_step, a, b)
        self.sim.annotate("chaos", fault="drop", a=a, b=b, rate=rate)

    # ------------------------------------------------------------------
    # Elastic faults (live ring moves on elastic stores)
    # ------------------------------------------------------------------
    def _elastic(self) -> bool:
        caps = getattr(self.store, "capabilities", None)
        return bool(caps is not None and getattr(caps, "elastic", False))

    def _do_scale_out(self, plan_step: FaultStep) -> None:
        if not self._elastic():
            self.sim.annotate("chaos", fault="scale_out", skipped="inelastic")
            return
        if self.store.rebalancing:
            self.sim.annotate("chaos", fault="scale_out", skipped="busy")
            return
        self.store.add_shard(plan_step.param("shard"))
        self.sim.annotate("chaos", fault="scale_out",
                          shards=len(self.store.shards))

    def _do_scale_in(self, plan_step: FaultStep) -> None:
        if not self._elastic():
            self.sim.annotate("chaos", fault="scale_in", skipped="inelastic")
            return
        if self.store.rebalancing or len(self.store.ring.nodes) <= 1:
            self.sim.annotate("chaos", fault="scale_in", skipped="busy")
            return
        self.store.decommission_shard(plan_step.param("shard"))
        self.sim.annotate("chaos", fault="scale_in",
                          shards=len(self.store.shards))

    def _expire_link(self, plan_step: FaultStep, a, b) -> None:
        duration = plan_step.param("duration", 0.0)
        if duration > 0:
            self._events.append(
                self.sim.schedule_daemon(
                    duration, self.network.clear_link_fault, a, b
                )
            )
