"""Dots, causal contexts and the one join every dot store runs.

A **dot** ``(replica, counter)`` names one write: the n-th event a
replica minted.  A **causal context** is the set of dots a state has
seen, kept in two parts: a *prefix* dict, where ``prefix[r] = n`` says
dots ``(r, 1)`` to ``(r, n)`` were all seen, and a *cloud*, the
frozenset of seen dots beyond the prefixes.  A **dot store** maps keys
to the dots that are still live.  Two states join by one rule
(Almeida, *Approaches to Conflict-free Replicated Data Types*): keep a
dot iff both sides hold it, or the side that lacks it has never seen
it — ``(s ∩ s′) ∪ (s ∖ c′) ∪ (s′ ∖ c)`` — and join the contexts.  A
dot covered by the context but absent from the store *is* the
tombstone.

Two stores run on it:

* ``ORSet`` (:mod:`repro.crdt.sets`) maps each element to its dots.
* :class:`DottedValueSet` is the dotted version vector of Preguiça et
  al., as used by Riak: the sibling set of one key at one replica, a
  dot → value store joined as a one-entry store.  Its cloud is always
  empty, so its context is a plain version vector, and a server can
  tell exactly which siblings a client write supersedes: those the
  client's vector covers — which is what stops the *sibling explosion*
  of plain version vectors under concurrent writes through one
  coordinator.

The two parts of a context are passed as they are, a prefix dict that
the join updates in place and a cloud that it returns: no object wraps
them, because an ``ORSet`` builds a context for every delta and every
copy it ships.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Hashable, Mapping

#: No dots: an absent key's dot set, and the cloud of a state that
#: travels whole.
_NO_DOTS: frozenset = frozenset()


def join_context(
    prefix: dict[Hashable, int],
    cloud: frozenset,
    other_prefix: Mapping[Hashable, int],
    other_cloud: frozenset,
) -> frozenset:
    """Join the other context into ``prefix`` (in place) and return the
    joined cloud, compacted: prefixes take the maximum, then the joined
    clouds are walked in counter order and a dot that extends its
    replica's prefix joins it, one the prefix already covers is
    dropped, and the rest stay.

    >>> prefix = {"a": 2}
    >>> join_context(prefix, frozenset({("b", 3)}), {"b": 2}, frozenset())
    frozenset()
    >>> prefix
    {'a': 2, 'b': 3}
    """
    for replica, count in other_prefix.items():
        if count > prefix.get(replica, 0):
            prefix[replica] = count
    if not (cloud or other_cloud):
        return cloud
    beyond = []
    for dot in sorted(cloud | other_cloud, key=itemgetter(1)):
        replica, count = dot
        have = prefix.get(replica, 0)
        if count == have + 1:
            prefix[replica] = count
        elif count > have:
            beyond.append(dot)
    return frozenset(beyond)


def join(
    store: dict[Any, frozenset],
    prefix: dict[Hashable, int],
    cloud: frozenset,
    other_store: dict[Any, frozenset],
    other_prefix: Mapping[Hashable, int],
    other_cloud: frozenset,
) -> frozenset:
    """Join the other state into ``store`` and ``prefix`` (in place):
    per key, ``(s ∩ s′) ∪ (s ∖ c′) ∪ (s′ ∖ c)``, then the contexts;
    returns the joined cloud.

    Per key, each side's dots are walked once and a dot the other side
    also holds is skipped; only the dots one side holds alone meet a
    context (prefix, then cloud).  Three outcomes: nothing dropped and
    nothing taken leaves our dot set in place; everything dropped and
    everything taken adopts *theirs*, so the next exchange between
    these replicas skips the key on identity; anything else rebuilds.
    Their keys come first, in their order, so new keys land in it.  A
    key only we hold is the same rule with their side empty, ``s ∖ c′``,
    walked in a pass of its own: through the general walk it costs an
    ``ORSet`` gossip storm 5 % more bytecodes.  Plain loops, two flags,
    a list only on the first hit: a dot set holds one or two dots,
    where building a difference or a comprehension's frame costs more
    than the walk."""
    for key, odots in other_store.items():
        dots = store.get(key, _NO_DOTS)
        if dots is odots or dots == odots:
            continue
        drop = add = ()
        kept = left = False
        for d in dots:
            if d in odots:
                continue
            if d[1] <= other_prefix.get(d[0], 0) or d in other_cloud:
                if drop:
                    drop.append(d)
                else:
                    drop = [d]
            else:
                kept = True
        for d in odots:
            if d in dots:
                continue
            if d[1] > prefix.get(d[0], 0) and d not in cloud:
                if add:
                    add.append(d)
                else:
                    add = [d]
            else:
                left = True
        if not (kept or left):
            store[key] = odots
        elif drop or add:
            merged = dots.difference(drop).union(add)
            if merged:
                store[key] = merged
            else:
                del store[key]
    for key in [k for k in store if k not in other_store]:
        dots = store[key]
        drop = ()
        kept = False
        for d in dots:
            if d[1] <= other_prefix.get(d[0], 0) or d in other_cloud:
                if drop:
                    drop.append(d)
                else:
                    drop = [d]
            else:
                kept = True
        if not kept:
            del store[key]
        elif drop:
            store[key] = dots.difference(drop)
    return join_context(prefix, cloud, other_prefix, other_cloud)


class DottedValueSet:
    """Sibling set for one key at one replica, with DVV semantics: a
    dot → value store, in stored order, under ``clock``, a causal
    context whose cloud is always empty (replica → prefix).

    >>> s = DottedValueSet()
    >>> ctx0 = s.clock
    >>> s = s.put("r1", "a", ctx0)          # first write
    >>> s = s.put("r1", "b", ctx0)          # concurrent write, same ctx
    >>> sorted(s.values())
    ['a', 'b']
    >>> s = s.put("r1", "c", s.clock)       # read-modify-write
    >>> s.values()
    ['c']
    """

    __slots__ = ("siblings", "clock")

    def __init__(
        self,
        siblings: dict[tuple, object] | None = None,
        clock: dict[Hashable, int] | None = None,
    ) -> None:
        self.siblings = siblings if siblings is not None else {}
        self.clock = clock if clock is not None else {}

    def values(self) -> list[object]:
        """Current sibling values, in stored order."""
        return list(self.siblings.values())

    def is_empty(self) -> bool:
        return not self.siblings

    def put(
        self, replica: Hashable, value: object, client_clock: Mapping[Hashable, int]
    ) -> "DottedValueSet":
        """Apply a client write coordinated at ``replica``.

        The write supersedes exactly the siblings ``client_clock``
        covers; others remain as concurrent siblings, and the new one
        goes last.  Returns a new set (value semantics).
        """
        clock = dict(self.clock)
        dot = (replica, clock.get(replica, 0) + 1)
        clock[replica] = dot[1]
        join_context(clock, _NO_DOTS, client_clock, _NO_DOTS)
        siblings = {
            d: v for d, v in self.siblings.items()
            if d[1] > client_clock.get(d[0], 0)
        }
        siblings[dot] = value
        return DottedValueSet(siblings, clock)

    def sync(self, other: "DottedValueSet") -> "DottedValueSet":
        """Merge two replicas' sets (commutative, associative,
        idempotent) by the dot-store join, as a one-entry store.  The
        siblings come out in ``(str(replica), counter)`` order."""
        store = {None: frozenset(self.siblings)}
        clock = dict(self.clock)
        join(store, clock, _NO_DOTS,
             {None: frozenset(other.siblings)}, other.clock, _NO_DOTS)
        kept = store.get(None, _NO_DOTS)
        values = {**self.siblings, **other.siblings}   # a dot names one write
        ordered = sorted((d for d in values if d in kept),
                         key=lambda d: (str(d[0]), d[1]))
        return DottedValueSet({d: values[d] for d in ordered}, clock)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sibs = ", ".join(f"{d}={v!r}" for d, v in self.siblings.items())
        return f"DVV[{sibs} | ctx={self.clock!r}]"
