"""Live ring moves: the handoff protocol behind elastic sharding.

A :class:`RingMove` transfers ownership of the key ranges that change
hands when a shard joins (``kind="join"``) or leaves
(``kind="drain"``) the :class:`~repro.sharding.ShardedStore` ring.  It
generalizes the quorum store's hinted-handoff idiom — data destined
for a node that cannot own it yet is staged and forwarded, and the
*donor keeps serving* until the recipient provably has everything:

1. **Copy** — stream every key of the moving range from the donor
   shard to the recipient through ordinary store sessions (so the
   transfer rides the same network, queues, and admission control as
   client traffic).  Donor serves reads *and* writes throughout.
2. **Freeze + delta** — writes to the moving range are briefly
   rejected at the router with a retryable
   :class:`~repro.errors.OverloadedError` (reads stay on the donor),
   in-flight writes drain, and delta passes re-copy keys whose donor
   token advanced until one full pass is clean.
3. **Flip** — in the same simulation event that observes the clean
   pass, the range's transfer fingerprint (a blake2b over the sorted
   ``(key, token, value)`` set) is recorded and routing flips
   atomically: the recipient owns the range, writes unfreeze.
4. **Tail sweep** — a post-flip safety pass re-copies any straggler
   write that was admitted at the donor before the freeze but landed
   after the clean pass, skipping keys the recipient has already
   re-written (the straggler lost the race and LWW would resolve the
   same way).

Donor version tokens are not carried across: the recipient stamps
each copy itself, as it would any client write.

Every operation retries on failure with deterministic backoff — a
move started mid-partition simply stalls until the network heals.
Retries are bounded (:data:`MAX_ATTEMPTS`): exhaustion raises a loud
:class:`~repro.errors.SimulationError` and parks the move in a failed
state (flipped ranges stay flipped, pending ranges keep routing to
their donor) rather than hanging the simulation or silently dropping
data.  The transfer runs as a *foreground* process, so
``sim.run()`` without a deadline completes the move — while daemon
events (nemesis heals, gossip) keep firing alongside.

Metrics publish under ``handoff.*``; every phase transition is
trace-annotated, so ring moves are part of a run's fingerprint.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Any, Hashable

from ..errors import ReproError, SimulationError
from ..sim import Future, spawn

if TYPE_CHECKING:  # pragma: no cover
    from .sharded import ShardedStore

JOIN, DRAIN = "join", "drain"

#: How long a frozen range lets in-flight writes drain before each
#: delta pass and each tail sweep (ms); also the ``retry_after`` a
#: write to the frozen range is told.
DRAIN_MS = 30.0
#: Attempts per copy operation before the move fails loudly.
MAX_ATTEMPTS = 64
#: Retry ``i`` of a copy operation waits ``min(200, 10 * i)`` ms.
RETRY_BASE, RETRY_CAP = 10.0, 200.0
#: Delta passes (and tail sweeps) per range before giving up.
MAX_DELTA_PASSES = 32


def transfer_fingerprint(copied: dict) -> str:
    """Canonical digest of a transferred range: blake2b over the
    sorted ``(key, token, value)`` triples."""
    digest = hashlib.blake2b(digest_size=16)
    for key in sorted(copied, key=repr):
        token, value = copied[key]
        digest.update(repr((key, str(token), value)).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


class RingMove:
    """One in-flight ring move (a join or a drain)."""

    def __init__(
        self,
        store: "ShardedStore",
        kind: str,
        subject: Hashable,
        op_timeout: float = 250.0,
        parallelism: int = 8,
    ) -> None:
        if kind not in (JOIN, DRAIN):
            raise ValueError(f"unknown move kind {kind!r}")
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        self.store = store
        self.sim = store.sim
        self.kind = kind
        #: The shard joining (``join``) or leaving (``drain``).
        self.subject = subject
        self.op_timeout = op_timeout
        #: Keys copied concurrently per pass.  Sequential copy is
        #: correct but far too slow when the move races live load —
        #: every key's RTT would stack on top of the service queues.
        self.parallelism = parallelism

        from ..replication import HashRing  # local import: no cycle

        self.old_ring = store.ring
        members = list(store.ring.nodes)
        if kind == JOIN:
            members.append(subject)
        else:
            members.remove(subject)
        self.new_ring = HashRing(members, vnodes=store.ring.vnodes)

        #: Counterpart shards (donors of a join, recipients of a
        #: drain) whose range has already flipped to the new owner.
        self.flipped: set[Hashable] = set()
        #: The counterpart whose moving range is currently
        #: write-frozen (None outside the freeze+delta phase).
        self.frozen: Hashable | None = None
        self.fingerprints: dict[Hashable, str] = {}
        self.done: Future = Future(store.sim, label=f"move:{kind}:{subject}")
        self.failed = False
        self.process: Any = None

        metrics = store.sim.metrics
        self._m_keys = metrics.counter("handoff.keys_copied")
        self._m_retries = metrics.counter("handoff.retries")
        self._m_rejected = metrics.counter("handoff.writes_rejected")
        self._m_tail = metrics.counter("handoff.tail_copies")
        self._m_ranges = metrics.counter("handoff.ranges_flipped")

    # ------------------------------------------------------------------
    # Routing (called per-op by the store; must stay cheap)
    # ------------------------------------------------------------------
    def moved(self, key: Hashable) -> bool:
        if self.kind == JOIN:
            return self.new_ring.coordinator(key) == self.subject
        return self.old_ring.coordinator(key) == self.subject

    def counterpart(self, key: Hashable) -> Hashable:
        """The shard on the other side of this key's transfer."""
        if self.kind == JOIN:
            return self.old_ring.coordinator(key)   # donor
        return self.new_ring.coordinator(key)       # recipient

    def route(self, key: Hashable) -> Hashable | None:
        """Where the store should route ``key``, or None when the move
        does not affect it."""
        if not self.moved(key):
            return None
        counterpart = self.counterpart(key)
        if self.kind == JOIN:
            return self.subject if counterpart in self.flipped \
                else counterpart
        return counterpart if counterpart in self.flipped else self.subject

    def write_blocked(self, key: Hashable) -> float | None:
        """``retry_after`` (ms) when ``key``'s range is mid-cutover."""
        if self.frozen is None or not self.moved(key):
            return None
        if self.counterpart(key) != self.frozen:
            return None
        self._m_rejected.inc()
        return DRAIN_MS

    # ------------------------------------------------------------------
    # Transfer process
    # ------------------------------------------------------------------
    def start(self) -> None:
        self.process = spawn(
            self.sim, self._script(),
            name=f"handoff-{self.kind}-{self.subject}",
        )

    def _donor_recipient(self, counterpart: Hashable) -> tuple:
        if self.kind == JOIN:
            return counterpart, self.subject
        return self.subject, counterpart

    def _counterparts(self) -> list[Hashable]:
        """Every shard that *can* be on the other side of the move —
        not just those currently holding moved keys, because a key
        created mid-move may map to a so-far-empty counterpart, and a
        range only changes owner by being flipped."""
        if self.kind == JOIN:
            return sorted(self.old_ring.nodes, key=str)
        return sorted(self.new_ring.nodes, key=str)

    def _range_keys(self, donor: Hashable, counterpart: Hashable) -> list:
        return [
            key for key in self.store._shard_keys(donor)
            if self.moved(key) and self.counterpart(key) == counterpart
        ]

    def _script(self):
        store = self.store
        try:
            counterparts = self._counterparts()
            # ``move=`` not ``kind=``: the tracers reserve ``kind`` for
            # the event kind itself.
            store.sim.annotate(
                "handoff", phase="start", move=self.kind,
                subject=self.subject, ranges=len(counterparts),
            )
            for counterpart in counterparts:
                yield from self._transfer_range(counterpart)
            store._finish_move(self)
            self.done.try_resolve(self.fingerprints)
        except BaseException as exc:
            self.failed = True
            self.frozen = None
            store.sim.annotate(
                "handoff", phase="failed", move=self.kind,
                subject=self.subject, error=type(exc).__name__,
            )
            self.done.try_fail(exc)
            raise

    def _transfer_range(self, counterpart: Hashable):
        store = self.store
        donor, recipient = self._donor_recipient(counterpart)
        donor_s = store._direct_session(donor, "handoff-src")
        recip_s = store._direct_session(recipient, "handoff-dst")
        copied: dict = {}
        store.sim.annotate("handoff", phase="copy", donor=donor,
                           recipient=recipient)
        yield from self._copy_pass(
            self._range_keys(donor, counterpart), donor_s, recip_s, copied,
        )
        # Cut over: reject new writes, let in-flight ones drain, then
        # delta-copy until one full pass observes no donor changes.
        self.frozen = counterpart
        store.sim.annotate("handoff", phase="freeze", donor=donor,
                           recipient=recipient)
        yield DRAIN_MS
        passes = 0
        while True:
            passes += 1
            changed = yield from self._copy_pass(
                self._range_keys(donor, counterpart), donor_s, recip_s,
                copied,
            )
            if changed == 0:
                break
            if passes >= MAX_DELTA_PASSES:
                raise SimulationError(
                    f"handoff {donor}->{recipient} never quiesced after "
                    f"{passes} delta passes"
                )
        # Clean pass observed: fingerprint and flip in this same event.
        fingerprint = transfer_fingerprint(copied)
        self.fingerprints[counterpart] = fingerprint
        self.flipped.add(counterpart)
        self.frozen = None
        self._m_ranges.inc()
        store._on_range_flip(self, counterpart, fingerprint, len(copied))
        # Safety net for stragglers admitted at the donor pre-freeze
        # but applied after the clean pass: sweep until quiet.
        passes = 0
        while True:
            passes += 1
            yield DRAIN_MS
            swept = yield from self._tail_sweep(
                donor, counterpart, donor_s, recip_s, copied
            )
            if swept == 0 or passes >= MAX_DELTA_PASSES:
                break

    def _copy_pass(self, keys, donor_s, recip_s, copied: dict):
        """One full copy pass over ``keys`` with bounded parallelism.
        Returns how many keys actually changed hands."""
        keys = list(keys)
        if not keys:
            return 0
        tally = [0]
        shared = iter(keys)

        def worker():
            for key in shared:
                tally[0] += yield from self._copy_key(
                    key, donor_s, recip_s, copied
                )

        workers = [
            spawn(self.sim, worker(), name=f"handoff-copy-{i}")
            for i in range(min(self.parallelism, len(keys)))
        ]
        yield [w.completion for w in workers]
        return tally[0]

    def _copy_key(self, key, donor_s, recip_s, copied: dict):
        """Copy one key donor → recipient if its donor token moved
        since we last copied it.  Returns 1 if copied, else 0."""
        value, token = yield from self._call(
            lambda: donor_s.get(key, timeout=self.op_timeout),
            f"read {key!r}",
        )
        if token is None and value is None:
            return 0                      # never written / expired
        previous = copied.get(key)
        if previous is not None and previous[0] == token:
            return 0
        yield from self._call(
            lambda: recip_s.put(key, value, timeout=self.op_timeout),
            f"write {key!r}",
        )
        copied[key] = (token, value)
        self._m_keys.inc()
        return 1

    def _tail_sweep(self, donor, counterpart, donor_s, recip_s,
                    copied: dict):
        """Post-flip pass: copy donor writes that landed after the
        clean pass — unless the recipient has since accepted a newer
        write for the key (then the straggler already lost under LWW
        and copying it would resurrect a stale value)."""
        swept = 0
        for key in self._range_keys(donor, counterpart):
            value, token = yield from self._call(
                lambda k=key: donor_s.get(k, timeout=self.op_timeout),
                f"tail read {key!r}",
            )
            if token is None and value is None:
                continue
            previous = copied.get(key)
            if previous is not None and previous[0] == token:
                continue
            current, _rt = yield from self._call(
                lambda k=key: recip_s.get(k, timeout=self.op_timeout),
                f"tail check {key!r}",
            )
            expected = previous[1] if previous is not None else None
            if current != expected:
                # A post-flip client write superseded the straggler.
                copied[key] = (token, value)
                continue
            yield from self._call(
                lambda k=key, v=value: recip_s.put(
                    k, v, timeout=self.op_timeout),
                f"tail write {key!r}",
            )
            copied[key] = (token, value)
            self._m_tail.inc()
            swept += 1
        return swept

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _call(self, make_future, label: str):
        """Await ``make_future()`` with bounded deterministic retries."""
        attempt = 0
        while True:
            try:
                result = yield make_future()
                return result
            except ReproError as exc:
                attempt += 1
                if attempt >= MAX_ATTEMPTS:
                    raise SimulationError(
                        f"handoff gave up on {label} after "
                        f"{attempt} attempts: {exc}"
                    ) from exc
                self._m_retries.inc()
                yield min(RETRY_CAP, RETRY_BASE * attempt)
