"""Simulated message-passing network.

The network delivers arbitrary Python objects between registered nodes
with per-link latency sampled from a :class:`LatencyModel`.  It can
drop, duplicate and partition — the failure modes whose handling
distinguishes the replication protocols in :mod:`repro.replication`.

Messages between distinct nodes are delivered by scheduling
``dst.deliver(src_id, message)`` on the owning simulator.  Delivery to
a node's own id is allowed (loopback) and takes :data:`LOOPBACK_LATENCY`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from heapq import heappush
from math import log
from typing import Any, Callable, Hashable, Iterable, Protocol

from ..analysis.registry import MetricsRegistry
from ..errors import NetworkError
from .core import Simulator
from .trace import MSG_DELIVER, MSG_DROP, MSG_SEND

#: Delay (ms) for a node sending to itself.
LOOPBACK_LATENCY = 0.01

NodeId = Hashable


class LatencyModel(Protocol):
    """Samples a one-way message delay in milliseconds.

    Models may additionally provide ``link_sampler(src, dst)``
    returning a per-link ``sampler(rng) -> float`` closure; the network
    caches one per (src, dst) pair so the hot send path skips the
    generic dispatch (and any per-pair table lookups) while drawing the
    exact same values from the RNG.  Parameters are captured when the
    first message crosses a link — swap the network's whole ``latency``
    model to reconfigure, don't mutate one in place.
    """

    def sample(self, rng, src: NodeId, dst: NodeId) -> float:  # pragma: no cover
        ...


class FixedLatency:
    """Every message takes exactly ``delay`` ms."""

    def __init__(self, delay: float = 1.0) -> None:
        if delay < 0:
            raise NetworkError("latency must be non-negative")
        self.delay = delay

    def sample(self, rng, src: NodeId, dst: NodeId) -> float:
        return self.delay

    def link_sampler(self, src: NodeId, dst: NodeId) -> Callable[[Any], float]:
        delay = self.delay
        return lambda rng: delay


class ExponentialLatency:
    """``base`` plus an exponential tail with the given ``mean`` — the
    standard model for LAN latencies with occasional stragglers."""

    def __init__(self, base: float = 0.5, mean: float = 1.0) -> None:
        if base < 0 or mean <= 0:
            raise NetworkError("base must be >= 0 and mean > 0")
        self.base = base
        self.mean = mean

    def sample(self, rng, src: NodeId, dst: NodeId) -> float:
        return self.base + rng.expovariate(1.0 / self.mean)

    def link_sampler(self, src: NodeId, dst: NodeId) -> Callable[[Any], float]:
        # Random.expovariate's own expression, minus its frame: the same
        # draw and the same float as sample().
        base, rate = self.base, 1.0 / self.mean
        return lambda rng: base + -log(1.0 - rng.random()) / rate


class LogNormalLatency:
    """Log-normal delay, parameterized by its median and sigma.

    Heavy-tailed; a good fit for measured WAN one-way delays.
    """

    def __init__(self, median: float = 1.0, sigma: float = 0.5) -> None:
        if median <= 0 or sigma < 0:
            raise NetworkError("median must be > 0 and sigma >= 0")
        self.mu = log(median)
        self.sigma = sigma

    def sample(self, rng, src: NodeId, dst: NodeId) -> float:
        return rng.lognormvariate(self.mu, self.sigma)

    def link_sampler(self, src: NodeId, dst: NodeId) -> Callable[[Any], float]:
        mu, sigma = self.mu, self.sigma
        return lambda rng: rng.lognormvariate(mu, sigma)


class MatrixLatency:
    """Per-pair base latency plus a multiplicative jitter factor.

    ``matrix`` maps ``(src, dst)`` (or the node's *site*, see
    ``site_of``) to a one-way base delay; an entry serves both
    directions unless the reverse has its own, and a pair with neither
    raises.  Jitter multiplies the base by ``uniform(1, 1 + jitter)``.
    """

    def __init__(
        self,
        matrix: dict[tuple[Hashable, Hashable], float],
        site_of: Callable[[NodeId], Hashable] | None = None,
        jitter: float = 0.1,
    ) -> None:
        self.matrix = dict(matrix)
        self.site_of = site_of or (lambda node: node)
        self.jitter = jitter

    def _base_for(self, src: NodeId, dst: NodeId) -> float:
        key = (self.site_of(src), self.site_of(dst))
        base = self.matrix.get(key)
        if base is None:
            base = self.matrix.get((key[1], key[0]))
        if base is None:
            raise NetworkError(f"no latency entry for {key}")
        return base

    def sample(self, rng, src: NodeId, dst: NodeId) -> float:
        base = self._base_for(src, dst)
        if self.jitter <= 0:
            return base
        return base * rng.uniform(1.0, 1.0 + self.jitter)

    def link_sampler(self, src: NodeId, dst: NodeId) -> Callable[[Any], float]:
        # Resolve the site mapping and matrix lookups once per link.
        base = self._base_for(src, dst)
        if self.jitter <= 0:
            return lambda rng: base
        ceiling = 1.0 + self.jitter
        return lambda rng: base * rng.uniform(1.0, ceiling)


def estimate_size(obj: Any) -> int:
    """Rough serialized size of a message, in bytes.

    Used for the bandwidth comparisons (Merkle vs. full-state
    anti-entropy, state- vs. delta-CRDT shipping).  The estimate is a
    simple recursive model — 8 bytes per number, string/bytes length,
    container overhead — deliberately deterministic and cheap.
    """
    if obj is None or isinstance(obj, bool):
        return 1
    if isinstance(obj, (int, float)):
        return 8
    if isinstance(obj, str):
        return 2 + len(obj.encode("utf-8", errors="replace"))
    if isinstance(obj, bytes):
        return 2 + len(obj)
    if isinstance(obj, dict):
        return 4 + sum(estimate_size(k) + estimate_size(v) for k, v in obj.items())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return 4 + sum(estimate_size(item) for item in obj)
    if hasattr(obj, "__dict__"):
        return 8 + estimate_size(vars(obj))
    if is_dataclass(obj):
        # Slotted dataclasses (no __dict__): measure field-name -> value
        # exactly as vars() would on the unslotted equivalent, so adding
        # ``slots=True`` to a message type never changes byte metrics.
        return 8 + estimate_size(
            {f.name: getattr(obj, f.name) for f in fields(obj)}
        )
    if hasattr(obj, "__slots__"):
        return 8 + sum(
            estimate_size(getattr(obj, slot))
            for slot in obj.__slots__
            if hasattr(obj, slot)
        )
    return 16


class NetworkStats:
    """The network's handles on its counters, which live in the
    simulator's :class:`MetricsRegistry` under ``net.*`` — read them
    there (``sim.metrics.counter("net.messages_sent").value``), next
    to every other metric of a run.
    """

    _COUNTERS = (
        "messages_sent",
        "messages_delivered",
        "messages_dropped_loss",
        "messages_dropped_partition",
        "messages_dropped_link",
        "messages_dropped_crash",
        "messages_duplicated",
        "bytes_sent",
    )

    def __init__(self, registry: MetricsRegistry) -> None:
        self._registry = registry
        for name in self._COUNTERS:
            setattr(self, "_" + name, registry.counter(f"net.{name}"))
        # Hot-path cache keyed by message *class*: one dict hit per
        # send instead of re-formatting "<prefix>.by_type.<name>" and
        # re-hashing the name string.  Distinct classes sharing a
        # __name__ share the registry counter.
        self._class_counters: dict[type, Any] = {}

    def counter_for_type(self, cls: type) -> Any:
        """Get-or-create the ``by_type`` counter for a message class."""
        counter = self._class_counters.get(cls)
        if counter is None:
            counter = self._class_counters[cls] = self._registry.counter(
                f"net.by_type.{cls.__name__}"
            )
        return counter


@dataclass(slots=True)
class LinkFault:
    """Degradation applied to one (unordered) node pair.

    ``down`` severs the link outright; ``drop_rate`` loses a fraction
    of its messages; ``extra_delay`` (ms) slows every delivery.  All
    three are injected by the chaos nemesis (``slow_link`` /
    ``drop_rate`` bursts, ring/bridge partitions) and counted under the
    dedicated ``net.messages_dropped_link`` counter — never folded into
    the generic ``loss`` bucket, so chaos assertions can tell injected
    faults from background noise.
    """

    down: bool = False
    drop_rate: float = 0.0
    extra_delay: float = 0.0

    @property
    def is_noop(self) -> bool:
        return not self.down and self.drop_rate <= 0 and self.extra_delay <= 0


class Network:
    """The message fabric connecting :class:`repro.sim.node.Node` objects.

    Parameters
    ----------
    sim:
        Owning simulator.
    latency:
        One-way delay model; defaults to 1 ms fixed.
    loss_rate:
        Probability a message is silently dropped (checked per copy).
    duplicate_rate:
        Probability a message is delivered twice.
    track_bytes:
        When true, every payload is passed through
        :func:`estimate_size` (costs CPU; off by default).
    """

    def __init__(
        self,
        sim: Simulator,
        latency: LatencyModel | None = None,
        loss_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        track_bytes: bool = False,
    ) -> None:
        self.sim = sim
        self._latency = latency or FixedLatency(1.0)
        self.track_bytes = track_bytes
        self.stats = NetworkStats(sim.metrics)
        # node id -> port ``(node, inbox)``.  The inbox maps a delivery
        # time to the messages landing on this node at that instant —
        # one ``(src, message)`` pair, or a list of them — which share
        # one scheduled dispatch until _deliver pops them.
        self._ports: dict[NodeId, tuple[Any, dict[float, Any]]] = {}
        #: The bound ``_deliver`` every delivery entry carries, built once.
        self._dispatch = self._deliver
        self._partition: dict[NodeId, int] | None = None
        # Group index late-registered nodes fall into while partitioned.
        self._partition_leftover = 0
        # Per-pair fault state, keyed by frozenset({a, b}); empty in
        # healthy runs so the send hot path pays one truthiness check.
        self._link_faults: dict[frozenset, LinkFault] = {}
        self._samplers: dict[tuple[NodeId, NodeId], Callable[[Any], float]] = {}
        # Trace drop reason -> the counter that accounts for it: a
        # severed or lossy link has its own counter — not a partition,
        # not random loss.
        stats = self.stats
        self._drop_counters = {
            "crash": stats._messages_dropped_crash,
            "partition": stats._messages_dropped_partition,
            "link_down": stats._messages_dropped_link,
            "link_loss": stats._messages_dropped_link,
            "loss": stats._messages_dropped_loss,
        }
        # ``_healthy`` folds the failure-free preconditions (no
        # partition, no link faults, no loss, no duplication) into one
        # flag so the common case pays a single check.  Maintained by
        # the loss/duplicate setters, partition()/heal() and the link
        # fault mutators.
        self._loss_rate = 0.0
        self._duplicate_rate = 0.0
        self._healthy = True
        self.loss_rate = loss_rate
        self.duplicate_rate = duplicate_rate

    @property
    def latency(self) -> LatencyModel:
        return self._latency

    @latency.setter
    def latency(self, model: LatencyModel) -> None:
        # Swapping the model invalidates every cached per-link sampler.
        self._latency = model
        self._samplers.clear()

    def _update_healthy(self) -> None:
        self._healthy = (
            self._partition is None
            and not self._link_faults
            and not self._loss_rate
            and not self._duplicate_rate
        )

    @property
    def loss_rate(self) -> float:
        return self._loss_rate

    @loss_rate.setter
    def loss_rate(self, rate: float) -> None:
        if not 0 <= rate < 1:
            raise NetworkError("loss_rate must be in [0, 1)")
        self._loss_rate = rate
        self._update_healthy()

    @property
    def duplicate_rate(self) -> float:
        return self._duplicate_rate

    @duplicate_rate.setter
    def duplicate_rate(self, rate: float) -> None:
        if not 0 <= rate < 1:
            raise NetworkError("duplicate_rate must be in [0, 1)")
        self._duplicate_rate = rate
        self._update_healthy()

    def _link_sampler(
        self, src: NodeId, dst: NodeId
    ) -> Callable[[Any], float]:
        factory = getattr(self._latency, "link_sampler", None)
        if factory is not None:
            return factory(src, dst)
        sample = self._latency.sample
        return lambda rng: sample(rng, src, dst)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def register(self, node: Any) -> None:
        """Attach a node (anything with ``.node_id`` and ``.deliver``)."""
        node_id = node.node_id
        if node_id in self._ports:
            raise NetworkError(f"duplicate node id {node_id!r}")
        self._ports[node_id] = (node, {})

    def node(self, node_id: NodeId) -> Any:
        try:
            return self._ports[node_id][0]
        except KeyError:
            raise NetworkError(f"unknown node {node_id!r}") from None

    @property
    def node_ids(self) -> list[NodeId]:
        return list(self._ports)

    # ------------------------------------------------------------------
    # Partitions
    # ------------------------------------------------------------------
    def partition(self, *groups: Iterable) -> None:
        """Split the network: messages cross group boundaries only to be
        dropped.  Nodes not named in any group form one extra implicit
        group — including nodes registered *after* the split, so a
        client connecting mid-partition shares the leftover group with
        the unnamed rest of the world (and with other late arrivals)
        instead of being marooned alone.  Replaces any existing
        partition."""
        assignment: dict[NodeId, int] = {}
        for index, group in enumerate(groups):
            for node_id in group:
                if node_id not in self._ports:
                    raise NetworkError(f"unknown node {node_id!r} in partition")
                if node_id in assignment:
                    raise NetworkError(f"node {node_id!r} in two partition groups")
                assignment[node_id] = index
        leftover = len(groups)
        for node_id in self._ports:
            if node_id not in assignment:
                assignment[node_id] = leftover
        self._partition = assignment
        self._partition_leftover = leftover
        self._update_healthy()

    def heal(self) -> None:
        """Remove the partition; in-flight messages already dropped stay
        dropped (links do not retroactively deliver)."""
        self._partition = None
        self._update_healthy()

    def _crossing(
        self, src: NodeId, dst: NodeId
    ) -> tuple[str | None, LinkFault | None]:
        """Whether a message can cross ``src`` → ``dst`` right now: the
        drop reason (``"partition"`` / ``"link_down"``) or ``None``,
        plus the pair's link fault, if any.  The one reachability rule
        under both :meth:`send` and :meth:`reachable`; nodes registered
        after a split belong to its implicit leftover group."""
        if src == dst:
            return None, None
        partition = self._partition
        if partition is not None:
            leftover = self._partition_leftover
            if partition.get(src, leftover) != partition.get(dst, leftover):
                return "partition", None
        fault = None
        if self._link_faults:
            fault = self._link_faults.get(frozenset((src, dst)))
            if fault is not None and fault.down:
                return "link_down", fault
        return None, fault

    def reachable(self, src: NodeId, dst: NodeId) -> bool:
        return self._crossing(src, dst)[0] is None

    @property
    def partitioned(self) -> bool:
        return self._partition is not None

    # ------------------------------------------------------------------
    # Link faults (chaos nemesis hooks)
    # ------------------------------------------------------------------
    def set_link_fault(
        self,
        a: NodeId,
        b: NodeId,
        down: bool = False,
        drop_rate: float = 0.0,
        extra_delay: float = 0.0,
    ) -> None:
        """Degrade the (symmetric) link between ``a`` and ``b``.

        Passing all defaults clears the pair's fault.  Messages lost to
        a faulted link are counted in ``net.messages_dropped_link`` and
        traced with reason ``link_down`` / ``link_loss`` — dedicated
        accounting, distinct from partition and random-loss drops.
        """
        if a not in self._ports:
            raise NetworkError(f"unknown node {a!r} in link fault")
        if b not in self._ports:
            raise NetworkError(f"unknown node {b!r} in link fault")
        if not 0 <= drop_rate < 1:
            raise NetworkError("link drop_rate must be in [0, 1)")
        if extra_delay < 0:
            raise NetworkError("link extra_delay must be non-negative")
        key = frozenset((a, b))
        fault = LinkFault(down=down, drop_rate=drop_rate,
                          extra_delay=extra_delay)
        if fault.is_noop:
            self._link_faults.pop(key, None)
        else:
            self._link_faults[key] = fault
        self._update_healthy()

    def clear_link_fault(self, a: NodeId, b: NodeId) -> None:
        self._link_faults.pop(frozenset((a, b)), None)
        self._update_healthy()

    def clear_link_faults(self) -> None:
        """Restore every degraded link (the nemesis ``heal``)."""
        self._link_faults.clear()
        self._update_healthy()

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, src: NodeId, dst: NodeId, message: Any) -> None:
        """Fire-and-forget unicast.  Drops are silent, as in UDP/IP —
        protocol code must tolerate them.

        This is the hottest function in the simulator after the event
        loop itself: the per-type counter is one class-keyed dict hit,
        the message type name is only computed when tracing is on, the
        payload size estimate only when ``track_bytes`` asked for it,
        per-link latency samplers are built once per (src, dst), and
        the failure-free case skips every fault check on one
        ``_healthy`` flag, straight to the single sample + enqueue.
        Every drop, partition, link-fault, loss, duplicate and
        ``track_bytes`` rule lives here and nowhere else.

        Per-message delay is always sampled *before* grouping (RNG
        draw order is part of the determinism contract); messages
        landing on the same destination at the same delivery time
        share one scheduled dispatch (see :meth:`_deliver`).
        """
        ports = self._ports
        port = ports.get(dst)
        if port is None:
            raise NetworkError(f"unknown destination {dst!r}")
        sim = self.sim
        stats = self.stats
        trace = sim.trace
        tracing = trace.enabled
        msg_type = type(message)
        msg_name = msg_type.__name__ if tracing else None
        stats._messages_sent.value += 1
        by_type = stats._class_counters.get(msg_type)
        if by_type is None:
            by_type = stats.counter_for_type(msg_type)
        by_type.value += 1
        if self.track_bytes:
            stats._bytes_sent.inc(estimate_size(message))
        if tracing:
            trace.message(sim.now, MSG_SEND, src, dst, msg_name)
        src_port = ports.get(src)
        if src_port is not None and getattr(src_port[0], "crashed", False):
            # Fail-stop means a crashed node cannot put messages on the
            # wire, not just that it stops hearing them.
            self._drop("crash", src, dst, msg_name)
            return
        rng = sim.rng
        copies = 1
        loss_rate = link_loss = extra_delay = 0.0
        if not self._healthy:
            # Every fault check lives here; the failure-free case skips
            # the block on one flag and falls through with the neutral
            # values above.
            reason, fault = self._crossing(src, dst)
            if reason is not None:
                self._drop(reason, src, dst, msg_name)
                return
            if fault is not None:
                link_loss = fault.drop_rate
                extra_delay = fault.extra_delay
            loss_rate = self._loss_rate
            if self._duplicate_rate and rng.random() < self._duplicate_rate:
                copies = 2
                stats._messages_duplicated.inc()
        while copies:
            copies -= 1
            # Per copy, in this order: loss draw, link-loss draw, delay
            # draw (RNG draw order is part of the determinism contract).
            if loss_rate and rng.random() < loss_rate:
                self._drop("loss", src, dst, msg_name)
                continue
            if link_loss and rng.random() < link_loss:
                self._drop("link_loss", src, dst, msg_name)
                continue
            if src == dst:
                delay = LOOPBACK_LATENCY
            else:
                sampler = self._samplers.get((src, dst))
                if sampler is None:
                    sampler = self._link_sampler(src, dst)
                    self._samplers[(src, dst)] = sampler
                delay = sampler(rng)
                if extra_delay:
                    delay += extra_delay
            when = sim.now + delay
            inbox = port[1]
            batch = inbox.get(when)
            if batch is None:
                inbox[when] = (src, message)
                # EventQueue.push_fn's entry and bookkeeping, minus its frame.
                queue = sim._queue
                seq = queue._seq
                queue._seq = seq + 1
                heappush(queue._heap, (when, seq, self._dispatch, port))
                queue._live += 1
                queue._foreground += 1
            elif type(batch) is tuple:
                inbox[when] = [batch, (src, message)]
            else:
                batch.append((src, message))

    def send_many(self, src: NodeId, dsts: Iterable[NodeId], message: Any) -> None:
        """Fan one message out: ``for dst in dsts: send(src, dst, message)``,
        send for send — same order, counters, trace records and RNG draws —
        with everything that loop would recompute resolved once.  Whenever a
        fault rule could apply (a network that is not healthy,
        ``track_bytes``, a crashed source) or the message type is new to
        this network, it *is* that loop.
        """
        ports = self._ports
        stats = self.stats
        by_type = stats._class_counters.get(type(message))
        src_port = ports.get(src)
        if (by_type is None or not self._healthy or self.track_bytes
                or (src_port is not None and getattr(src_port[0], "crashed", False))):
            for dst in dsts:
                self.send(src, dst, message)
            return
        sim = self.sim
        trace = sim.trace
        tracing = trace.enabled
        msg_name = type(message).__name__
        sent = stats._messages_sent
        now, rng, queue, dispatch = sim.now, sim.rng, sim._queue, self._dispatch
        heap, samplers = queue._heap, self._samplers
        pair = (src, message)
        for dst in dsts:
            port = ports.get(dst)
            if port is None:
                raise NetworkError(f"unknown destination {dst!r}")
            sent.value += 1
            by_type.value += 1
            if tracing:
                trace.message(now, MSG_SEND, src, dst, msg_name)
            if src == dst:
                delay = LOOPBACK_LATENCY
            else:
                sampler = samplers.get((src, dst))
                if sampler is None:
                    sampler = samplers[(src, dst)] = self._link_sampler(src, dst)
                delay = sampler(rng)
            when = now + delay
            inbox = port[1]
            batch = inbox.get(when)
            if batch is None:
                inbox[when] = pair
                seq = queue._seq
                queue._seq = seq + 1
                heappush(heap, (when, seq, dispatch, port))
                queue._live += 1
                queue._foreground += 1
            elif type(batch) is tuple:
                inbox[when] = [batch, pair]
            else:
                batch.append(pair)

    def _drop(
        self, reason: str, src: NodeId, dst: NodeId, msg_name: str | None
    ) -> None:
        """Count and trace one message lost for ``reason``
        (``msg_name`` is set exactly when tracing is on)."""
        self._drop_counters[reason].inc()
        if msg_name is not None:
            self.sim.trace.message(self.sim.now, MSG_DROP, src, dst, msg_name, reason)

    def broadcast(self, src: NodeId, message: Any) -> None:
        # The list snapshots the membership: a callback reached from a
        # send (e.g. a latency model or future dynamic-membership hook
        # registering a node) must not blow up the iteration.
        self.send_many(src, [dst for dst in self._ports if dst != src], message)

    def _deliver(self, node: Any, inbox: dict[float, Any]) -> None:
        """Dispatch the messages landing on ``node`` now (called with its
        port, at the delivery time the batch is filed under).

        One scheduled event delivers the whole batch, in send order
        (the grouping is exact, so only genuinely simultaneous
        same-destination messages coalesce — under continuous latency
        models a batch is almost always the one pair, handled without a
        loop).  A grouped dispatch of *n* messages credits
        ``events_processed`` with the ``n - 1`` events the queue never
        had to pop, keeping the events/sec basis comparable across
        grouping regimes.  The crash check runs per message: a handler
        may crash its own node mid-batch, and the remaining messages
        must then drop exactly as they would have from their own events.
        """
        sim = self.sim
        trace = sim.trace
        rest = inbox.pop(sim.now)
        if type(rest) is tuple:
            (src, message), rest = rest, None
        else:
            sim.events_processed += len(rest) - 1
            src, message = rest.pop(0)
        while True:
            if getattr(node, "crashed", False):
                self._drop("crash", src, node.node_id,
                           type(message).__name__ if trace.enabled else None)
            else:
                self.stats._messages_delivered.value += 1
                if trace.enabled:
                    trace.message(sim.now, MSG_DELIVER, src, node.node_id,
                                  type(message).__name__)
                node.deliver(src, message)
            if not rest:
                return
            src, message = rest.pop(0)
