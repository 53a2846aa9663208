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
assumes), and registers :class:`PileusStore` — a timeline group whose
sessions read through an :class:`SLAClient` — with:

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

from ..api import registry
from ..api.store import FnSession, StoreCapabilities, StoreSession, mapped_future
from ..errors import ReproError
from ..replication.timeline import TimelineCluster
from ..rpc import RetryPolicy
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


#: EWMA weight of a new latency or lag sample.
ALPHA = 0.3
#: What the monitor predicts for a replica it has no sample of (ms).
DEFAULT_LATENCY, DEFAULT_LAG = 50.0, 200.0


@dataclass
class ReplicaMonitor:
    """Latency and lag estimates the selector plans with."""

    latency: dict = field(default_factory=dict)   # replica -> ms (RTT)
    lag: dict = field(default_factory=dict)       # replica -> ms behind master

    def observe_latency(self, replica: Hashable, rtt: float) -> None:
        old = self.latency.get(replica)
        self.latency[replica] = (
            rtt if old is None else (1 - ALPHA) * old + ALPHA * rtt
        )

    def observe_lag(self, replica: Hashable, lag_ms: float) -> None:
        old = self.lag.get(replica)
        self.lag[replica] = (
            lag_ms if old is None else (1 - ALPHA) * old + ALPHA * lag_ms
        )

    def predicted_latency(self, replica: Hashable) -> float:
        return self.latency.get(replica, DEFAULT_LATENCY)

    def predicted_lag(self, replica: Hashable) -> float:
        return self.lag.get(replica, DEFAULT_LAG)


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

    Wraps a :class:`~repro.replication.TimelineClient` and plans and
    grades against its session token (read-my-writes against the write
    floor, monotonic against the read floor); keeps a
    :class:`ReplicaMonitor` and per-SLA utility accounting.
    """

    def __init__(self, client) -> None:
        self.client = client
        self.cluster = client.cluster
        self.sim: Simulator = client.sim
        self.token = client.token
        self.monitor = ReplicaMonitor()
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
            # The client's own callback, registered first, has already
            # noted the version in the session token.
            if future.error is not None:
                outer.fail(future.error)
                return
            master = self.cluster.master_of(key)
            self.monitor.observe_latency(master, self.sim.now - started)
            outer.resolve(future.value)

        inner.add_callback(done)
        return outer

    # ------------------------------------------------------------------
    # Replica selection
    # ------------------------------------------------------------------
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
            guarantee = (
                "mr" if subsla.consistency is Consistency.MONOTONIC
                else "ryw"
            )
            if not self.token.required(key, (guarantee,)):
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
        # Monotonic reads are graded against the floor as it stood
        # when the read was issued, not after this reply raised it.
        read_floor = self.token.required(key, ("mr",)) or 0

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
            self.token.note_read(key, version)
            outcome = self._score(
                key, sla, target, target_rank, value, version, latency,
                read_floor,
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
        floor = self.token.required(key, ("ryw",)) or 0
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
        read_floor: int,
    ) -> ReadOutcome:
        """Utility of the first sub-SLA the reply actually satisfies."""
        master = self.cluster.master_of(key)
        master_version = self.cluster.replica(master).data.get(key, (None, 0))[1]
        for rank, subsla in enumerate(sla):
            if latency > subsla.latency_bound:
                continue
            if not self._reply_meets(
                subsla, key, version, master_version, read_floor
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
        version: int,
        master_version: int,
        read_floor: int,
    ) -> bool:
        if subsla.consistency is Consistency.STRONG:
            return version >= master_version
        if subsla.consistency in (
            Consistency.READ_MY_WRITES,
            Consistency.CAUSAL,
        ):
            return version >= (self.token.required(key, ("ryw",)) or 0)
        if subsla.consistency is Consistency.MONOTONIC:
            return version >= read_floor
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


class FixedTargetSLAClient(SLAClient):
    """An SLA client pinned to one replica — the fixed-strategy
    baseline Pileus is compared against in E7."""

    def __init__(self, client, target: Hashable) -> None:
        super().__init__(client)
        self._target = target

    def select_target(self, key, sla):
        return self._target, 0


@registry.register(StoreCapabilities(
    name="pileus",
    description="per-read consistency SLAs over a timeline store",
    read_modes=("sla",),
    session_guarantees=("ryw", "mr"),
    chaos_waivers=(
        ("ryw", "SLA reads degrade to the eventual subclause by design "
         "when stronger targets are partitioned away, so read-my-writes "
         "is best-effort under faults (Pileus trades it for latency)"),
        ("mr", "same SLA degradation: a read served by a laggard "
         "replica after the preferred target drops out may move the "
         "session backwards"),
    ),
))
class PileusStore(TimelineCluster):
    """A timeline group whose sessions pick a replica per read by SLA
    (``target=`` pins one instead)."""

    def session(
        self,
        name: Hashable | None = None,
        sla: SLA = SHOPPING_CART,
        target: Hashable | None = None,
        retry: RetryPolicy | None = None,
        **opts: Any,
    ) -> StoreSession:
        client, _pref, region = self._open(name, retry, opts)
        if target is not None:
            sla_client = FixedTargetSLAClient(client, target)
        else:
            sla_client = SLAClient(client)
        if region is not None:
            # Per-tenant region origin: the session's client node lives
            # in its region and the monitor starts from the *real* WAN
            # round trips instead of the flat default, so sub-SLA
            # selection reflects geography from the first read.
            for node_id in self.node_ids:
                sla_client.monitor.latency[node_id] = 2 * self.placement.delay(
                    region, self.placement.region_of(node_id)
                )

        session = FnSession(
            client,
            put_fn=lambda k, v, t: sla_client.write(k, v, timeout=t),
            read_fns={
                "sla": lambda k, t: mapped_future(
                    self.sim,
                    sla_client.read(k, sla, timeout=t),
                    lambda outcome: (outcome.value, outcome.version or None),
                ),
            },
            default_mode="sla",
            region=region,
        )
        session.sla_client = sla_client
        return session
