"""Queue-driven autoscaling policy for the elastic sharded store.

The control loop the open-loop experiments motivate: sample the
aggregate ``server.queue_depth`` gauge (PR 6's admission-control
signal), normalize it per server node, and when the backlog stays
above ``high_depth`` for ``sustain`` consecutive ticks, add a shard;
when it stays below ``low_depth``, drain one.  A cooldown separates
actions so one flash crowd triggers one scale-out, not a thrash.

Deliberately boring policy, deliberately careful actuation:

* never acts while a ring move is already in flight
  (``store.rebalancing``);
* respects ``min_shards`` / ``max_shards``.

Ticks are daemon events (the autoscaler never keeps ``sim.run()``
alive) and every decision is trace-annotated and counted under
``autoscaler.*``, so scaling activity is part of a run's fingerprint.
"""

from __future__ import annotations

from typing import Any

from ..sim import Simulator

#: Sim-ms between two samples of the queue-depth gauges.
_INTERVAL = 50.0


class Autoscaler:
    """Watches queue-depth gauges; calls ``store.add_shard()`` /
    ``store.decommission_shard()``."""

    def __init__(
        self,
        high_depth: float = 4.0,
        low_depth: float = 0.5,
        sustain: int = 3,
        cooldown: float = 400.0,
        min_shards: int = 1,
        max_shards: int = 8,
        move_opts: dict | None = None,
    ) -> None:
        self.store: Any = None
        self.high_depth = high_depth
        self.low_depth = low_depth
        self.sustain = sustain
        self.cooldown = cooldown
        self.min_shards = min_shards
        self.max_shards = max_shards
        #: Extra kwargs for every ring move this policy starts — e.g. a
        #: longer ``op_timeout`` so handoff ops survive the very queues
        #: that triggered the scale-out.
        self.move_opts = dict(move_opts or {})
        self._high_ticks = 0
        self._low_ticks = 0
        self._last_action = -float("inf")
        self._running = False
        #: ``(time, action, shards_after)`` decision log for reports.
        self.decisions: list[tuple[float, str, int]] = []

    # ------------------------------------------------------------------
    def install(self, store: Any) -> None:
        """Attach to ``store`` and start the policy tick."""
        self.store = store
        if self._running:
            return
        self._running = True
        sim: Simulator = self.store.sim
        self._m_out = sim.metrics.counter("autoscaler.scale_out")
        self._m_in = sim.metrics.counter("autoscaler.scale_in")
        self._g_signal = sim.metrics.gauge("autoscaler.depth_per_node")
        sim.schedule_daemon(_INTERVAL, self._tick)

    def stop(self) -> None:
        self._running = False

    # ------------------------------------------------------------------
    def _signal(self) -> float:
        """Aggregate queue depth per server node."""
        sim = self.store.sim
        depth = sim.metrics.gauge("server.queue_depth").value
        servers = len(self.store.server_ids())
        return depth / servers if servers else 0.0

    def _tick(self) -> None:
        if not self._running:
            return
        sim: Simulator = self.store.sim
        per_node = self._signal()
        self._g_signal.set(round(per_node, 4))
        shards = len(self.store.shard_ids)
        busy = bool(getattr(self.store, "rebalancing", False))
        if per_node >= self.high_depth:
            self._high_ticks += 1
            self._low_ticks = 0
        elif per_node <= self.low_depth:
            self._low_ticks += 1
            self._high_ticks = 0
        else:
            self._high_ticks = self._low_ticks = 0
        cooled = sim.now - self._last_action >= self.cooldown
        if not busy and cooled:
            if self._high_ticks >= self.sustain and shards < self.max_shards:
                self._act(sim, "scale_out", per_node)
            elif self._low_ticks >= self.sustain and shards > self.min_shards:
                self._act(sim, "scale_in", per_node)
        sim.schedule_daemon(_INTERVAL, self._tick)

    def _act(self, sim: Simulator, action: str, per_node: float) -> None:
        if action == "scale_out":
            self.store.add_shard(**self.move_opts)
            self._m_out.inc()
        else:
            self.store.decommission_shard(**self.move_opts)
            self._m_in.inc()
        self._last_action = sim.now
        self._high_ticks = self._low_ticks = 0
        shards = len(self.store.shard_ids)
        self.decisions.append((sim.now, action, shards))
        sim.annotate("autoscaler", action=action, shards=shards,
                     depth_per_node=round(per_node, 3))
