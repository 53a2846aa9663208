"""Set CRDTs: 2P-Set, OR-Set, and the op-based OR-Set.

Sets expose the add/remove conflict the tutorial uses to show why
"merge" needs application semantics: what should ``{add(x) ∥
remove(x)}`` converge to?  Each type here answers differently —
2P-Set makes removal permanent, OR-Set is add-wins (an add not yet
seen by the remove survives).
"""

from __future__ import annotations

from typing import Any, Hashable, Iterator

from ..clocks.dvv import join
from ..clocks.vector import CausalBuffer, OpEnvelope
from .base import StateCRDT


class TwoPSet(StateCRDT):
    """Two-phase set: removal is a permanent tombstone.

    An element can be added and removed once; re-adding a removed
    element has no effect (the tombstone wins forever).  Cheap, but the
    wrong tool when elements recur — that's what OR-Set fixes.
    """

    def __init__(self, replica_id: Hashable) -> None:
        self.replica_id = replica_id
        self._added: set = set()
        self._removed: set = set()

    def add(self, item: Any) -> None:
        self._added.add(item)

    def remove(self, item: Any) -> None:
        """Tombstone ``item``.  Removing a never-added element is legal
        (it just pre-blocks any future add)."""
        self._removed.add(item)

    def __contains__(self, item: Any) -> bool:
        return item in self._added and item not in self._removed

    def __iter__(self) -> Iterator:
        return iter(self.value)

    def __len__(self) -> int:
        return len(self._added - self._removed)

    @property
    def value(self) -> frozenset:
        return frozenset(self._added - self._removed)

    def merge(self, other: "TwoPSet") -> "TwoPSet":
        self._require_same_type(other)
        self._added |= other._added
        self._removed |= other._removed
        return self

    def copy(self) -> "TwoPSet":
        clone = self._blank_copy()
        clone._added = set(self._added)
        clone._removed = set(self._removed)
        return clone

    def state(self) -> dict:
        return {
            "added": sorted(self._added, key=repr),
            "removed": sorted(self._removed, key=repr),
        }


#: Shared empty dot set — ``live_tags`` on an absent element, and the
#: dot cloud of every full replica, allocate nothing.
_NO_TAGS: frozenset = frozenset()


class ORSet(StateCRDT):
    """Observed-remove set (add-wins), tombstone-free — an ORSWOT
    ("observed-remove set without tombstones", the Riak design) whose
    mutators also return **deltas**.

    Every add mints a unique **dot** ``(replica, counter)``; the state
    keeps only the *live* dots per element plus a **causal context**:
    the dots it has seen, live or not.  "Dot covered by the context but
    absent from the live store" *is* the tombstone, so removed elements
    cost nothing forever after.  Merge keeps a dot iff both sides hold
    it live, or one side holds it and the other has never seen it
    (add-wins for concurrent adds).

    The context is *prefixes + a dot cloud* (:mod:`repro.clocks.dvv`):
    ``_prefix[r]`` says every dot ``1..prefix[r]`` of replica *r* was
    seen, ``_cloud`` holds the seen dots beyond those prefixes.  A
    replica mints its dots sequentially, so a state that travels whole
    is all prefix and its cloud is empty; the cloud is what lets a
    **delta** — the small state :meth:`add` and :meth:`remove` return —
    name exactly the dots it touched instead of claiming every earlier
    dot of its replica.  A delta is an ``ORSet`` like any other: ship it
    instead of ``copy()``, or join several into a fresh ``ORSet`` and
    ship that; :meth:`merge` takes full states and deltas alike, in any
    order, any number of times.  (A delta is a state to join, not a
    replica to mutate further.)  Merge is :func:`repro.clocks.dvv.join`,
    the dot-store join the quorum store's sibling sets run too.

    Dot sets are immutable (``frozenset``): :meth:`copy` — the gossip
    wire snapshot — is a shallow dict copy sharing them, and merge
    skips an element in O(1) when both sides hold the same object.

    >>> a, b = ORSet("a"), ORSet("b")
    >>> delta = a.add("x")
    >>> _ = b.merge(delta)     # ship the delta, not the whole state
    >>> _ = b.remove("x")      # b removes the add it saw
    >>> _ = a.add("x")         # concurrent re-add at a
    >>> _ = a.merge(b); _ = b.merge(a.copy())
    >>> ("x" in a, "x" in b)
    (True, True)
    """

    def __init__(self, replica_id: Hashable) -> None:
        self.replica_id = replica_id
        self._dots: dict[Any, frozenset] = {}   # element -> live dots only
        self._prefix: dict[Hashable, int] = {}  # context: replica -> seen prefix
        self._cloud: frozenset = _NO_TAGS       # context: seen dots past the prefixes

    def _fresh_tag(self) -> tuple:
        """A dot one past every dot of ours seen here, recorded as seen:
        it extends our prefix unless it lands past a gap (own dots seen
        out of order, as from joined deltas)."""
        me = self.replica_id
        count = start = self._prefix.get(me, 0)
        for replica, counter in self._cloud:
            if replica == me and counter > count:
                count = counter
        dot = (me, count + 1)
        if count == start:
            self._prefix[me] = count + 1
        else:
            self._cloud |= {dot}
        return dot

    def _delta(self, dots: dict, context: frozenset) -> "ORSet":
        """A state holding ``dots`` that has seen exactly ``context``."""
        delta = self._blank_copy()
        delta._dots = dots
        delta._prefix = {}
        delta._cloud = context
        return delta

    def add(self, item: Any) -> "ORSet":
        """Add ``item`` under a fresh dot that replaces its live ones
        (Almeida's δ-ORSet add), so an element re-added N times holds one
        dot.  Returns the delta: that dot, live, having seen exactly it
        and the dots it replaced — which is what retires them at a peer."""
        replaced = self._dots.get(item, _NO_TAGS)
        single = frozenset((self._fresh_tag(),))
        self._dots[item] = single
        return self._delta({item: single}, single | replaced)

    def remove(self, item: Any) -> "ORSet":
        """Drop every dot of ``item`` observed at this replica.  The
        causal context still covers them, which is what tells peers the
        removal happened — and is all the returned delta carries: an
        empty store that has seen exactly the removed dots."""
        return self._delta({}, self._dots.pop(item, _NO_TAGS))

    def live_tags(self, item: Any) -> frozenset:
        return self._dots.get(item, _NO_TAGS)

    def __contains__(self, item: Any) -> bool:
        return item in self._dots

    def __iter__(self) -> Iterator:
        return iter(self._dots)

    def __len__(self) -> int:
        return len(self._dots)

    @property
    def value(self) -> frozenset:
        return frozenset(self._dots)

    def merge(self, other: "ORSet") -> "ORSet":
        self._require_same_type(other)
        self._cloud = join(self._dots, self._prefix, self._cloud,
                           other._dots, other._prefix, other._cloud)
        return self

    def copy(self) -> "ORSet":
        clone = self._blank_copy()
        # Immutable dot sets: sharing them is safe, so the snapshot a
        # gossip round ships is O(live elements), not O(history).
        clone._dots = dict(self._dots)
        clone._prefix = dict(self._prefix)
        clone._cloud = self._cloud
        return clone

    def state(self) -> dict:
        """Wire form; ``cloud`` appears only when non-empty, i.e. never
        for a full replica."""
        out = {
            "dots": {repr(k): sorted(v) for k, v in self._dots.items()},
            "context": {
                repr(r): c
                for r, c in sorted(self._prefix.items(), key=lambda kv: repr(kv[0]))
            },
        }
        if self._cloud:
            out["cloud"] = sorted(self._cloud)
        return out


class OpORSet:
    """Op-based observed-remove set (add-wins) over causal broadcast: an
    op is just ``("add", element)`` or ``("remove", element)``.

    The causal envelope already names every op (Baquero, Almeida &
    Shoker's pure op-based CRDTs): its dot is ``(origin,
    clock[origin])``, and the dots its origin had seen are the ones its
    clock covers.  So applying an op drops every dot of its element the
    envelope's clock covers, the test ``join`` spells too, and an add
    then puts in its own dot.  A concurrent add's dot is not covered and
    survives; an element re-added N times holds one dot.  Causal
    delivery is what makes this enough: a remove always arrives after
    the adds it observed.
    """

    def __init__(self, replica_id: Hashable) -> None:
        self.replica_id = replica_id
        self.buffer = CausalBuffer(replica_id, self._apply)
        self._dots: dict[Any, frozenset] = {}

    def add(self, item: Any) -> OpEnvelope:
        return self.buffer.stamp_local(("add", item))

    def remove(self, item: Any) -> OpEnvelope:
        return self.buffer.stamp_local(("remove", item))

    def receive(self, envelope: OpEnvelope) -> None:
        self.buffer.receive(envelope)

    def _apply(self, envelope: OpEnvelope) -> None:
        kind, item = envelope.payload
        clock = envelope.clock
        live = [d for d in self._dots.get(item, _NO_TAGS)
                if d[1] > clock.get(d[0], 0)]
        if kind == "add":
            live.append((envelope.origin, clock[envelope.origin]))
        if live:
            self._dots[item] = frozenset(live)
        else:
            self._dots.pop(item, None)

    def __contains__(self, item: Any) -> bool:
        return item in self._dots

    @property
    def value(self) -> frozenset:
        return frozenset(self._dots)

    def __len__(self) -> int:
        return len(self._dots)
