"""Consistency-based SLAs (Pileus, Terry et al. SOSP'13).

The tutorial's end point: instead of one consistency level baked into
the application, each *read* carries an SLA — an ordered list of
``(consistency, latency bound, utility)`` sub-SLAs — and the client
library picks, per read, the replica expected to deliver the highest
utility.  A nearby lagging replica wins when the SLA tolerates
staleness; the far master wins when it doesn't; the ranking shifts as
client→replica latencies change.

This implementation targets the :class:`~repro.replication.TimelineCluster`
(single master per record, async propagation — the same regime Pileus
assumes), with:

* :class:`ReplicaMonitor` — EWMA latency estimates per replica plus a
  propagation-lag estimate, learned from observed replies,
* condition evaluation per consistency level (strong / read-my-writes
  / monotonic / bounded(t) / eventual),
* post-hoc utility scoring of each reply against the SLA.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Hashable

from ..errors import ReproError
from ..sim import Future, Simulator, spawn


class Consistency(enum.Enum):
    """Read-consistency levels a sub-SLA can demand (Pileus's menu)."""

    STRONG = "strong"
    READ_MY_WRITES = "read-my-writes"
    MONOTONIC = "monotonic"
    BOUNDED = "bounded"          # parameterized by staleness_bound ms
    CAUSAL = "causal"
    EVENTUAL = "eventual"


@dataclass(frozen=True)
class SubSLA:
    """One acceptable (consistency, latency, utility) point."""

    consistency: Consistency
    latency_bound: float            # ms, client-observed
    utility: float
    staleness_bound: float = 0.0    # ms; only for Consistency.BOUNDED

    def __post_init__(self) -> None:
        if self.latency_bound <= 0:
            raise ValueError("latency bound must be positive")
        if self.utility < 0:
            raise ValueError("utility must be non-negative")
        if self.consistency is Consistency.BOUNDED and self.staleness_bound <= 0:
            raise ValueError("bounded consistency needs a staleness bound")


@dataclass(frozen=True)
class SLA:
    """An ordered preference list; earlier sub-SLAs are preferred."""

    name: str
    subslas: tuple[SubSLA, ...]

    def __post_init__(self) -> None:
        if not self.subslas:
            raise ValueError("SLA needs at least one sub-SLA")

    def __iter__(self):
        return iter(self.subslas)


# The three worked examples from the Pileus paper.
PASSWORD_CHECKING = SLA(
    "password-checking",
    (
        SubSLA(Consistency.STRONG, 100.0, 1.0),
        SubSLA(Consistency.STRONG, 500.0, 0.001),
    ),
)

SHOPPING_CART = SLA(
    "shopping-cart",
    (
        SubSLA(Consistency.READ_MY_WRITES, 50.0, 1.0),
        SubSLA(Consistency.READ_MY_WRITES, 200.0, 0.75),
        SubSLA(Consistency.EVENTUAL, 200.0, 0.4),
    ),
)

WEB_CONTENT = SLA(
    "web-content",
    (
        SubSLA(Consistency.BOUNDED, 60.0, 1.0, staleness_bound=300.0),
        SubSLA(Consistency.EVENTUAL, 60.0, 0.6),
        SubSLA(Consistency.EVENTUAL, 400.0, 0.3),
    ),
)


@dataclass
class ReplicaMonitor:
    """Latency and lag estimates the selector plans with."""

    alpha: float = 0.3                       # EWMA weight for new samples
    default_latency: float = 50.0
    default_lag: float = 200.0
    latency: dict = field(default_factory=dict)   # replica -> ms (RTT)
    lag: dict = field(default_factory=dict)       # replica -> ms behind master

    def observe_latency(self, replica: Hashable, rtt: float) -> None:
        old = self.latency.get(replica)
        self.latency[replica] = (
            rtt if old is None else (1 - self.alpha) * old + self.alpha * rtt
        )

    def observe_lag(self, replica: Hashable, lag_ms: float) -> None:
        old = self.lag.get(replica)
        self.lag[replica] = (
            lag_ms if old is None else (1 - self.alpha) * old + self.alpha * lag_ms
        )

    def predicted_latency(self, replica: Hashable) -> float:
        return self.latency.get(replica, self.default_latency)

    def predicted_lag(self, replica: Hashable) -> float:
        return self.lag.get(replica, self.default_lag)


@dataclass
class ReadOutcome:
    """What one SLA-driven read actually delivered."""

    value: Any
    version: int
    latency: float
    utility: float
    replica: Hashable
    subsla_rank: int        # 0-based index of the sub-SLA credited
    target_rank: int        # which sub-SLA the selector aimed for


class SLAClient:
    """Pileus-style client over a timeline cluster.

    Wraps a :class:`~repro.replication.TimelineClient`; keeps its own
    session floors (for read-my-writes / monotonic), a
    :class:`ReplicaMonitor`, and per-SLA utility accounting.
    """

    def __init__(self, client, monitor: ReplicaMonitor | None = None) -> None:
        self.client = client
        self.cluster = client.cluster
        self.sim: Simulator = client.sim
        self.monitor = monitor or ReplicaMonitor()
        self.write_floor: dict[Hashable, int] = {}
        self.read_floor: dict[Hashable, int] = {}
        self.outcomes: list[ReadOutcome] = []
        self._last_write_time: dict[Hashable, float] = {}

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def write(
        self, key: Hashable, value: Any, timeout: float | None = None
    ) -> Future:
        self._last_write_time[key] = self.sim.now
        inner = self.client.write(key, value, timeout)
        outer = Future(self.sim, label=("sla-write({!r})", key))
        started = self.sim.now

        def done(future: Future) -> None:
            if future.error is not None:
                outer.fail(future.error)
                return
            version = future.value
            self.write_floor[key] = max(self.write_floor.get(key, 0), version)
            master = self.cluster.master_of(key)
            self.monitor.observe_latency(master, self.sim.now - started)
            outer.resolve(version)

        inner.add_callback(done)
        return outer

    # ------------------------------------------------------------------
    # Replica selection
    # ------------------------------------------------------------------
    def _floor_for(self, key: Hashable, consistency: Consistency) -> int:
        if consistency is Consistency.STRONG:
            return -1  # sentinel: must go to master
        if consistency in (Consistency.READ_MY_WRITES, Consistency.CAUSAL):
            return self.write_floor.get(key, 0)
        if consistency is Consistency.MONOTONIC:
            return self.read_floor.get(key, 0)
        return 0

    def _replica_can_serve(
        self, replica: Hashable, key: Hashable, subsla: SubSLA
    ) -> bool:
        master = self.cluster.master_of(key)
        if subsla.consistency is Consistency.STRONG:
            return replica == master
        if replica == master:
            return True  # the master satisfies every weaker level
        lag = self.monitor.predicted_lag(replica)
        if subsla.consistency is Consistency.BOUNDED:
            return lag <= subsla.staleness_bound
        if subsla.consistency in (
            Consistency.READ_MY_WRITES,
            Consistency.CAUSAL,
            Consistency.MONOTONIC,
        ):
            floor = self._floor_for(key, subsla.consistency)
            if floor == 0:
                return True
            # Heuristic: the replica has our writes if they are older
            # than its typical propagation lag.
            last_write_age = self.sim.now - self._last_write_time.get(key, -1e9)
            return last_write_age >= lag
        return True  # EVENTUAL

    def select_target(
        self, key: Hashable, sla: SLA
    ) -> tuple[Hashable, int]:
        """Pick (replica, subsla_rank) maximizing expected utility:
        scan sub-SLAs in preference order; the first with a replica
        predicted to meet both conditions wins (Pileus §4.3)."""
        for rank, subsla in enumerate(sla):
            candidates = [
                replica
                for replica in self.cluster.node_ids
                if self._replica_can_serve(replica, key, subsla)
                and self.monitor.predicted_latency(replica)
                <= subsla.latency_bound
            ]
            if candidates:
                best = min(
                    candidates, key=lambda r: self.monitor.predicted_latency(r)
                )
                return best, rank
        # Nothing predicted to qualify: fall back to the master.
        return self.cluster.master_of(key), len(sla.subslas) - 1

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def read(
        self, key: Hashable, sla: SLA, timeout: float | None = None
    ) -> Future:
        """SLA-driven read; resolves with a :class:`ReadOutcome`."""
        outer = Future(self.sim, label=("sla-read({!r})", key))
        target, target_rank = self.select_target(key, sla)
        started = self.sim.now

        def script():
            from ..replication.timeline import TReadAny

            try:
                value, version = yield self.client.call(
                    target, TReadAny(key), timeout
                )
            except ReproError as exc:
                outer.fail(exc)
                return
            latency = self.sim.now - started
            self.monitor.observe_latency(target, latency)
            self._observe_freshness(target, key, version)
            self.read_floor[key] = max(self.read_floor.get(key, 0), version)
            outcome = self._score(
                key, sla, target, target_rank, value, version, latency
            )
            self.outcomes.append(outcome)
            outer.resolve(outcome)

        spawn(self.sim, script(), name="sla-read")
        return outer

    def _observe_freshness(
        self, replica: Hashable, key: Hashable, version: int
    ) -> None:
        master = self.cluster.master_of(key)
        if replica == master:
            self.monitor.observe_lag(replica, 0.0)
            return
        predicted = self.monitor.predicted_lag(replica)
        floor = self.write_floor.get(key, 0)
        age = self.sim.now - self._last_write_time.get(key, -1e9)
        if floor > 0 and version < floor:
            # The replica missed a write we made ``age`` ms ago, so its
            # true lag exceeds ``age``: multiplicative increase keeps
            # the estimator honest when the scale guess is off.
            self.monitor.observe_lag(
                replica, max(2.0 * predicted, 1.5 * age, 1.0)
            )
            return
        master_version = self.cluster.replica(master).data.get(key, (None, 0))[1]
        behind = max(0, master_version - version)
        scale = max(self.cluster.propagation_delay, 1.0)
        if behind == 0:
            # Fresh reply: decay gently toward the good news.
            self.monitor.observe_lag(replica, 0.8 * predicted)
        else:
            self.monitor.observe_lag(replica, behind * scale)

    def _score(
        self,
        key: Hashable,
        sla: SLA,
        replica: Hashable,
        target_rank: int,
        value: Any,
        version: int,
        latency: float,
    ) -> ReadOutcome:
        """Utility of the first sub-SLA the reply actually satisfies."""
        master = self.cluster.master_of(key)
        master_version = self.cluster.replica(master).data.get(key, (None, 0))[1]
        for rank, subsla in enumerate(sla):
            if latency > subsla.latency_bound:
                continue
            if not self._reply_meets(
                subsla, key, replica, version, master_version
            ):
                continue
            return ReadOutcome(
                value, version, latency, subsla.utility, replica, rank,
                target_rank,
            )
        return ReadOutcome(value, version, latency, 0.0, replica,
                           len(sla.subslas), target_rank)

    def _reply_meets(
        self,
        subsla: SubSLA,
        key: Hashable,
        replica: Hashable,
        version: int,
        master_version: int,
    ) -> bool:
        if subsla.consistency is Consistency.STRONG:
            return version >= master_version
        if subsla.consistency in (
            Consistency.READ_MY_WRITES,
            Consistency.CAUSAL,
        ):
            return version >= self.write_floor.get(key, 0)
        if subsla.consistency is Consistency.MONOTONIC:
            # read_floor was updated after this read; monotonicity held
            # if we returned at least the previous floor — which the
            # update rule guarantees can only have grown.
            return True
        if subsla.consistency is Consistency.BOUNDED:
            behind = max(0, master_version - version)
            scale = max(self.cluster.propagation_delay, 1.0)
            return behind * scale <= subsla.staleness_bound
        return True  # EVENTUAL

    # ------------------------------------------------------------------
    def average_utility(self) -> float:
        if not self.outcomes:
            return 0.0
        return sum(o.utility for o in self.outcomes) / len(self.outcomes)
