"""CRDT base machinery.

The tutorial's answer to "how do replicas converge without
coordination?" is convergent/commutative replicated data types.  This
package implements both flavors:

* **State-based (CvRDT)** — replicas ship their whole state (or deltas)
  and :meth:`StateCRDT.merge` joins them.  Correctness requires merge
  to be a join-semilattice: commutative, associative, idempotent, and
  every mutation must be an inflation (move up the lattice).  The
  property tests in ``tests/test_crdt_laws.py`` check exactly these
  laws on every type here.

* **Op-based (CmRDT)** — replicas ship operations; concurrent
  operations must commute, and delivery must respect causality (see
  :mod:`repro.clocks.vector` for the causal-broadcast buffer).

State CRDTs here are mutable objects bound to a ``replica_id``;
``merge`` folds another replica's state in place (and returns ``self``
for chaining).  ``state()``/``from_state()`` give a plain-data wire
form used for size accounting in the bandwidth experiments.
"""

from __future__ import annotations

import abc
import copy as _copy
from typing import Any, Hashable


class StateCRDT(abc.ABC):
    """Abstract state-based CRDT."""

    replica_id: Hashable

    @property
    @abc.abstractmethod
    def value(self) -> Any:
        """The query result an application sees."""

    @abc.abstractmethod
    def merge(self, other: "StateCRDT") -> "StateCRDT":
        """Join ``other``'s state into ours.  Must be a semilattice join."""

    @abc.abstractmethod
    def state(self) -> Any:
        """Plain-data (dict/list/tuple) wire representation."""

    def copy(self) -> "StateCRDT":
        """An independent copy (same replica id) — what a state-based
        gossip round puts on the wire.

        Concrete types override this with a hand-rolled structural copy
        of their own containers (``copy.deepcopy`` is an order of
        magnitude slower and dominated CRDT merge benchmarks).
        Element/payload *values* are shared, not deep-copied: CRDT
        contents are treated as immutable, as the wire form
        (``state()``) already assumes.  Overrides use
        :meth:`_blank_copy` + field copies and call up through
        ``super().copy()`` so subclasses compose.
        """
        return _copy.deepcopy(self)

    def _blank_copy(self) -> "StateCRDT":
        """An uninitialized instance of our exact class, replica id set.

        Per-type ``copy`` implementations fill in their own fields;
        ``__init__`` is deliberately skipped so a copy never replays
        constructor arguments or builds fields it will overwrite.
        """
        clone = object.__new__(type(self))
        clone.replica_id = self.replica_id
        return clone

    def _require_same_type(self, other: "StateCRDT") -> None:
        if type(other) is not type(self):
            raise TypeError(
                f"cannot merge {type(other).__name__} into {type(self).__name__}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} @{self.replica_id} value={self.value!r}>"

