"""Set CRDTs: 2P-Set, OR-Set.

Sets expose the add/remove conflict the tutorial uses to show why
"merge" needs application semantics: what should ``{add(x) ∥
remove(x)}`` converge to?  Each type here answers differently —
2P-Set makes removal permanent, OR-Set is add-wins (an add not yet
seen by the remove survives).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Hashable, Iterator

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

    The context is *prefixes + a dot cloud*: ``_maxc[r]`` says every dot
    ``1..maxc[r]`` of replica *r* was seen, ``_cloud`` holds the seen
    dots beyond those prefixes.  A replica mints its dots sequentially,
    so a state that travels whole is all prefix and its cloud is empty;
    the cloud is what lets a **delta** — the small state :meth:`add` and
    :meth:`remove` return — name exactly the dots it touched instead of
    claiming every earlier dot of its replica.  A delta is an ``ORSet``
    like any other: ship it instead of ``copy()``, or join several into
    a fresh ``ORSet`` and ship that; :meth:`merge` takes full states and
    deltas alike, in any order, any number of times, and folds cloud
    dots into the prefixes as the gaps close.  (A delta is a state to
    join, not a replica to mutate further.)

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
        self._counter = 0
        self._dots: dict[Any, frozenset] = {}   # element -> live dots only
        self._maxc: dict[Hashable, int] = {}    # context: replica -> seen prefix
        self._cloud: frozenset = _NO_TAGS       # context: seen dots past the prefixes

    def _fresh_tag(self) -> tuple:
        me = self.replica_id
        self._counter = count = self._counter + 1
        dot = (me, count)
        if self._maxc.get(me, 0) == count - 1:
            self._maxc[me] = count
        else:  # own dots seen out of order (joined deltas): not a prefix
            self._cloud |= {dot}
        return dot

    def _delta(self, dots: dict, context: frozenset) -> "ORSet":
        """A state holding ``dots`` that has seen exactly ``context``."""
        delta = self._blank_copy()
        delta._counter = self._counter
        delta._dots = dots
        delta._maxc = {}
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
        cloud, ocloud = self._cloud, other._cloud
        self._join_dots(other)
        ctx = self._maxc
        for replica, count in other._maxc.items():
            if count > ctx.get(replica, 0):
                ctx[replica] = count
        # Keep our dot counter ahead of every dot seen from ourselves,
        # so dots stay unique even after state restore.
        seen = ctx.get(self.replica_id, 0)
        if cloud or ocloud:
            # Join the clouds, then compact: in counter order, a dot
            # that extends its replica's prefix joins it, one the
            # prefix already covers is dropped, the rest stay.
            beyond = []
            for dot in sorted(cloud | ocloud, key=itemgetter(1)):
                replica, count = dot
                have = ctx.get(replica, 0)
                if count == have + 1:
                    ctx[replica] = count
                elif count > have:
                    beyond.append(dot)
                if replica == self.replica_id and count > seen:
                    seen = count
            self._cloud = frozenset(beyond)
        if seen > self._counter:
            self._counter = seen
        return self

    def _join_dots(self, other: "ORSet") -> None:
        """The dot-store join, ``(s ∩ s′) ∪ (s ∖ c′) ∪ (s′ ∖ c)``: keep
        a dot iff both sides hold it live, or its only holder is the
        side the other has not seen it from.  Per element, each side's
        dots are walked once and a dot the other side also holds is
        skipped; only the dots one side holds alone meet a context
        (prefix, then cloud).  Three outcomes: nothing dropped and
        nothing taken leaves our object in place; everything dropped and
        everything taken adopts *their* object, so the next exchange
        between these replicas skips the element on identity; anything
        else rebuilds.  An element one side lacks is the same rule with
        that side empty.  Plain loops, two flags, a list only on the
        first hit: a dot set holds one or two dots, where building a
        difference or a comprehension's frame costs more than the walk."""
        mine, theirs = self._dots, other._dots
        ctx, cloud = self._maxc, self._cloud
        octx, ocloud = other._maxc, other._cloud
        # Theirs first, in their order: new elements land in it.
        for item, odots in theirs.items():
            cur = mine.get(item, _NO_TAGS)
            if cur is odots or cur == odots:
                continue
            drop = add = ()
            kept = left = False
            for d in cur:
                if d in odots:
                    continue
                if d[1] <= octx.get(d[0], 0) or d in ocloud:
                    if drop:
                        drop.append(d)
                    else:
                        drop = [d]
                else:
                    kept = True
            for d in odots:
                if d in cur:
                    continue
                if d[1] > ctx.get(d[0], 0) and d not in cloud:
                    if add:
                        add.append(d)
                    else:
                        add = [d]
                else:
                    left = True
            if not (kept or left):
                mine[item] = odots
            elif drop or add:
                merged = cur.difference(drop).union(add)
                if merged:
                    mine[item] = merged
                else:
                    del mine[item]
        # Then the elements only we hold: nothing to take, and what the
        # other side has seen (and so removed) goes.
        for item in [i for i in mine if i not in theirs]:
            cur = mine[item]
            drop = ()
            kept = False
            for d in cur:
                if d[1] <= octx.get(d[0], 0) or d in ocloud:
                    if drop:
                        drop.append(d)
                    else:
                        drop = [d]
                else:
                    kept = True
            if not kept:
                del mine[item]
            elif drop:
                mine[item] = cur.difference(drop)

    def copy(self) -> "ORSet":
        clone = self._blank_copy()
        clone._counter = self._counter
        # Immutable dot sets: sharing them is safe, so the snapshot a
        # gossip round ships is O(live elements), not O(history).
        clone._dots = dict(self._dots)
        clone._maxc = dict(self._maxc)
        clone._cloud = self._cloud
        return clone

    def state(self) -> dict:
        """Wire form; ``cloud`` appears only when non-empty, i.e. never
        for a full replica."""
        out = {
            "dots": {repr(k): sorted(v) for k, v in self._dots.items()},
            "context": {
                repr(r): c
                for r, c in sorted(self._maxc.items(), key=lambda kv: repr(kv[0]))
            },
        }
        if self._cloud:
            out["cloud"] = sorted(self._cloud)
        return out
