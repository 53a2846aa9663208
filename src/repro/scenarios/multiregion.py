"""The multi-region flagship scenario behind ``repro multiregion``.

Three regions (``us-east``, ``eu``, ``asia`` — the
:data:`~repro.sim.topology.THREE_CONTINENTS` WAN), one sharded cluster
per protocol with every shard's replica set spread across all three
regions, and clients in every region reading through both a
``local_follower`` and a ``primary`` read-preference session while
regional writers keep acked writes flowing.

At ``T_PART`` the nemesis cuts the ``us-east`` region off the WAN
(:class:`~repro.chaos.Nemesis` ``region_partition`` fault).  A scripted
operator then fails over — primary–backup shards promote their ``eu``
replica, timeline records mastered in the lost region are re-mastered
to ``eu``, quorum needs nothing (leaderless) — while probe writers in
the surviving ``eu`` region measure **RTO** (time until every shard
accepts writes again) and an authoritative read-back during the outage
measures **RPO** (acked-pre-partition writes no longer readable).

The expected shape of the table is the paper's trade-off made
executable:

* ``quorum`` (w=2 of 3, one replica per region) recovers without any
  operator action and loses nothing — every write quorum intersects
  the two surviving regions;
* ``primary_backup`` in ``async`` mode recovers only after promotion
  and *loses* the writes the lost primary acked but had not replicated;
* ``timeline`` recovers after re-mastering and loses the tail of each
  lost master's timeline that had not propagated.

Meanwhile the latency side of the bargain: follower reads served in
region are 1–2 ms while authoritative reads pay one to two WAN round
trips — the local p99 must stay strictly below the remote p99 for
every protocol (asserted by E18 and ``MultiRegionReport.ok``).

Every leg runs under its own :class:`~repro.sim.HashingTracer`, so the
scenario has a per-seed fingerprint; the CI ``stories-smoke`` job
runs it twice (``--check-determinism``) and fails on drift.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from ..analysis import LatencyStats
from ..chaos import FaultPlan, Nemesis, step
from ..checkers import check_convergence
from ..errors import ReproError
from ..placement import Placement
from ..sim import HashingTracer, Network, Simulator, spawn
from ..sim.topology import THREE_CONTINENTS
from ..sharding import ShardedStore

__all__ = ["ProtocolOutcome", "MultiRegionReport",
           "run_multiregion", "format_multiregion"]

#: Scenario clock (simulated ms).  The region falls at ``T_PART``; the
#: operator reacts at ``T_FAILOVER``; the outage read-back starts at
#: ``T_RPO`` and must complete before the WAN heals at ``T_HEAL``.
T_PART = 400.0
T_FAILOVER = 460.0
T_RPO = 600.0
T_HEAL = 1400.0

READ_PERIOD = 10.0
WRITE_PERIOD = 12.0
OP_TIMEOUT = 2000.0
PROBE_TIMEOUT = 300.0
PROBE_INTERVAL = 40.0
RPO_TIMEOUT = 600.0

LOST_REGION = "us-east"
HOME_REGION = "eu"          # the surviving region the operator works from

#: The protocols the flagship compares, with the per-shard cluster
#: kwargs that make them honest on a WAN (the quorum defaults assume a
#: LAN; 25 ms replica timeouts would declare every remote replica dead).
PROTOCOL_KWARGS = {
    "timeline": {"propagation_delay": 25.0},
    "primary_backup": {"mode": "async"},
    "quorum": {"n": 3, "r": 2, "w": 2, "replica_timeout": 500.0,
               "op_deadline": 2000.0, "client_timeout": 4000.0},
}

#: The read mode that answers "what does the system *authoritatively*
#: believe survives?" during the outage (the RPO probe).
AUTH_MODE = {
    "timeline": "latest",
    "primary_backup": "primary",
    "quorum": "quorum",
}


@dataclass
class ProtocolOutcome:
    """One protocol's row in the region-loss table."""

    protocol: str
    shards: int = 0
    writes_acked: int = 0
    keys_checked: int = 0
    #: ms from region loss until every shard accepted a write again;
    #: ``None`` when some shard never recovered inside the window.
    rto_ms: float | None = None
    #: keys whose last acked pre-partition write was unreadable during
    #: the outage under the protocol's authoritative read mode.
    rpo_lost_keys: int = 0
    local_reads: int = 0
    remote_reads: int = 0
    local_p99: float = 0.0
    remote_p99: float = 0.0
    rpc_local: int = 0
    rpc_remote: int = 0
    converged: bool = False
    fingerprint: str = ""

    @property
    def recovered(self) -> bool:
        return self.rto_ms is not None


@dataclass
class MultiRegionReport:
    """Everything ``repro multiregion`` prints, plus pass/fail inputs."""

    seed: int
    topology: str = THREE_CONTINENTS.name
    regions: tuple = ()
    lost_region: str = LOST_REGION
    shards: int = 0
    quick: bool = False
    outcomes: list = field(default_factory=list)
    fingerprint: str = ""

    @property
    def ok(self) -> bool:
        """Every protocol recovered, follower reads beat authoritative
        reads everywhere, and the quorum leg lost nothing."""
        if not self.outcomes:
            return False
        for outcome in self.outcomes:
            if not outcome.recovered:
                return False
            if not outcome.local_p99 < outcome.remote_p99:
                return False
            if outcome.protocol == "quorum" and outcome.rpo_lost_keys != 0:
                return False
        return True


def run_multiregion(
    seed: int = 42,
    protocols: tuple = ("timeline", "primary_backup", "quorum"),
    quick: bool = False,
) -> MultiRegionReport:
    """Run the region-loss arc once per protocol; deterministic per seed."""
    unknown = [p for p in protocols if p not in PROTOCOL_KWARGS]
    if unknown:
        raise ValueError(
            f"unknown protocol(s) {', '.join(unknown)}; supported: "
            f"{', '.join(sorted(PROTOCOL_KWARGS))}"
        )
    report = MultiRegionReport(seed=seed, quick=quick,
                               shards=2 if quick else 3)
    report.regions = tuple(THREE_CONTINENTS.sites)
    digests = []
    for protocol in protocols:
        outcome = _run_leg(protocol, seed=seed, shards=report.shards,
                           quick=quick)
        report.outcomes.append(outcome)
        digests.append(outcome.fingerprint)
    report.fingerprint = hashlib.sha256(
        "".join(digests).encode()
    ).hexdigest()
    return report


def _run_leg(
    protocol: str, seed: int, shards: int, quick: bool
) -> ProtocolOutcome:
    outcome = ProtocolOutcome(protocol=protocol, shards=shards)
    tracer = HashingTracer()
    sim = Simulator(seed, tracer=tracer)
    placement = Placement(THREE_CONTINENTS, default_region=HOME_REGION)
    network = Network(sim, latency=placement.latency_model(jitter=0.05))
    store = ShardedStore(
        sim, network, protocol=protocol, shards=shards, nodes_per_shard=3,
        placement=placement, **PROTOCOL_KWARGS[protocol],
    )
    regions = placement.region_names

    keys = [f"k{i}" for i in range(12 if quick else 24)]
    probe_keys = _probe_keys(store)

    local_stats, remote_stats = LatencyStats(), LatencyStats()
    last_acked: dict = {}
    acked = [0]
    rto_ms: dict = {}
    rpo_read: dict = {}

    # One follower-read, one authoritative-read, and one writer session
    # per region; plus the operator's probe/read-back sessions in the
    # surviving region.  All opened before the clock starts.
    local_sessions = {
        r: store.session(f"local-{r}", read_preference="local_follower",
                         region=r)
        for r in regions
    }
    primary_sessions = {
        r: store.session(f"primary-{r}", read_preference="primary", region=r)
        for r in regions
    }
    writer_sessions = {
        r: store.session(f"writer-{r}", region=r) for r in regions
    }
    probe_session = store.session(
        "probe", read_preference="local_follower", region=HOME_REGION
    )
    # Authoritative reads ride the probe session for timeline (``latest``
    # is pinned to the record master) and quorum (the only mode), but
    # primary-backup needs a locality-free session: follower sessions
    # order endpoints nearest-first, which would send a "primary" read
    # to the local backup.
    if protocol == "primary_backup":
        rpo_session = store.session(
            "rpo", read_preference="primary", region=HOME_REGION
        )
    else:
        rpo_session = probe_session

    def record_read(stats, t0):
        def callback(future):
            if future.error is None and sim.now <= T_PART:
                stats.record(sim.now - t0)
        return callback

    def reader(session, stats, offset):
        issued = 0
        yield offset
        while sim.now < T_PART:
            key = keys[issued % len(keys)]
            issued += 1
            fut = session.get(key, timeout=OP_TIMEOUT)
            fut.add_callback(record_read(stats, sim.now))
            yield READ_PERIOD

    def record_ack(key, seq):
        def callback(future):
            if future.error is None and sim.now <= T_PART:
                if seq > last_acked.get(key, 0):
                    last_acked[key] = seq
                acked[0] += 1
        return callback

    def writer(session, owned, offset):
        seqs: dict = {}
        n = 0
        yield offset
        while sim.now < T_PART:
            key = owned[n % len(owned)]
            n += 1
            seqs[key] = seqs.get(key, 0) + 1
            fut = session.put(key, f"v{seqs[key]}", timeout=OP_TIMEOUT)
            fut.add_callback(record_ack(key, seqs[key]))
            yield WRITE_PERIOD

    def probe(key):
        yield T_PART + 10.0
        attempt = 0
        while sim.now < T_HEAL:
            attempt += 1
            try:
                yield probe_session.put(
                    key, f"p{attempt}", timeout=PROBE_TIMEOUT
                )
            except ReproError:
                yield PROBE_INTERVAL
                continue
            rto_ms[key] = sim.now - T_PART
            return

    def record_rpo(key):
        def callback(future):
            if future.error is None:
                rpo_read[key] = future.value[0]
            else:
                rpo_read[key] = None
        return callback

    def control():
        yield T_FAILOVER
        _fail_over(store, placement, protocol, keys + probe_keys)
        yield T_RPO - T_FAILOVER
        for key in sorted(last_acked):
            fut = rpo_session.get(
                key, mode=AUTH_MODE[protocol], timeout=RPO_TIMEOUT
            )
            fut.add_callback(record_rpo(key))
        yield RPO_TIMEOUT + 50.0   # all read-backs resolved, pre-heal

    for i, r in enumerate(regions):
        spawn(sim, reader(local_sessions[r], local_stats, 1.0 + 0.7 * i),
              name=f"reader-local-{r}")
        spawn(sim, reader(primary_sessions[r], remote_stats, 2.0 + 0.7 * i),
              name=f"reader-primary-{r}")
        spawn(sim, writer(writer_sessions[r], keys[i::len(regions)], 0.5 * i),
              name=f"writer-{r}")
    for key in probe_keys:
        spawn(sim, probe(key), name=f"probe-{key}")
    spawn(sim, control(), name="operator")

    plan = FaultPlan("multiregion-region-loss", (
        step("region_partition", at=T_PART, region=LOST_REGION),
        step("heal", at=T_HEAL),
    ))
    nemesis = Nemesis(plan, seed=seed)
    nemesis.install(store)

    sim.run()
    nemesis.heal_all()
    store.settle()
    sim.run()

    outcome.writes_acked = acked[0]
    outcome.keys_checked = len(last_acked)
    outcome.rto_ms = (max(rto_ms.values())
                      if len(rto_ms) == len(probe_keys) else None)
    outcome.rpo_lost_keys = sum(
        1 for key, seq in last_acked.items()
        if _version_of(rpo_read.get(key)) < seq
    )
    outcome.local_reads = len(local_stats.samples)
    outcome.remote_reads = len(remote_stats.samples)
    outcome.local_p99 = local_stats.percentile(99)
    outcome.remote_p99 = remote_stats.percentile(99)
    outcome.rpc_local = sim.metrics.counter("rpc.attempts_local").value
    outcome.rpc_remote = sim.metrics.counter("rpc.attempts_remote").value
    outcome.converged = check_convergence(store.snapshots()).ok
    outcome.fingerprint = tracer.hexdigest()
    return outcome


def _probe_keys(store: ShardedStore) -> list:
    """Deterministic fresh keys covering every shard — the RTO probes
    must prove *each* shard accepts writes again, not just one."""
    covered: set = set()
    chosen: list = []
    i = 0
    while len(covered) < len(store.shard_ids):
        key = f"probe{i}"
        i += 1
        shard = store.shard_of(key)
        if shard not in covered:
            covered.add(shard)
            chosen.append(key)
    return chosen


def _version_of(value) -> int:
    """Writer values are ``v<seq>``; anything else reads as version 0."""
    if isinstance(value, str) and value.startswith("v"):
        try:
            return int(value[1:])
        except ValueError:
            return 0
    return 0


def _fail_over(store, placement, protocol, keys) -> None:
    """The operator's runbook for losing :data:`LOST_REGION`.

    Quorum needs nothing — any two surviving replicas are a write
    quorum.  Primary–backup promotes each affected shard's replica in
    the operator's region.  Timeline re-masters every record whose
    master was in the lost region to the same survivor.
    """
    if protocol == "quorum":
        return
    for shard_id in store.shard_ids:
        cluster = store.shards[shard_id]
        if protocol == "primary_backup":
            primary = cluster.primary
            if placement.region_of(primary.node_id) != LOST_REGION:
                continue
            survivor = next(
                r for r in cluster.replicas
                if placement.region_of(r.node_id) == HOME_REGION
            )
            cluster.promote(survivor)
        elif protocol == "timeline":
            survivor = placement.nodes_in(
                HOME_REGION, within=cluster.node_ids
            )[0]
            for key in keys:
                if store.shard_of(key) != shard_id:
                    continue
                master = cluster.master_of(key)
                if placement.region_of(master) == LOST_REGION:
                    cluster.set_master(key, survivor)


def format_multiregion(report: MultiRegionReport) -> str:
    """The verdict block ``repro multiregion`` prints."""
    lines = [
        f"multi-region demo: topology={report.topology} seed={report.seed} "
        f"({report.shards} shards x 3 replicas spread over "
        f"{', '.join(report.regions)}; region {report.lost_region!r} lost "
        f"at {T_PART:.0f}ms, healed at {T_HEAL:.0f}ms)",
    ]
    for o in report.outcomes:
        rto = f"{o.rto_ms:.0f}ms" if o.rto_ms is not None else "NEVER"
        lines.append(
            f"  {o.protocol}: rto={rto} "
            f"rpo={o.rpo_lost_keys}/{o.keys_checked} keys lost "
            f"({o.writes_acked} writes acked pre-partition)"
        )
        lines.append(
            f"    reads: local p99 {o.local_p99:.1f}ms "
            f"({o.local_reads} samples) vs primary p99 "
            f"{o.remote_p99:.1f}ms ({o.remote_reads} samples); "
            f"rpc attempts {o.rpc_local} local / {o.rpc_remote} remote"
        )
        lines.append(
            f"    converged after heal: {o.converged}  "
            f"fingerprint: {o.fingerprint[:16]}"
        )
    lines.append(f"fingerprint: {report.fingerprint[:32]}")
    lines.append("PASS" if report.ok else "FAIL")
    return "\n".join(lines)
