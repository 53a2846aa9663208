"""E6 ("Table 2"): CRDT convergence semantics and shipping cost.

Claims: (a) every CRDT converges under arbitrary delivery
order/duplication; (b) the *converged value* differs by type — LWW
loses one of two concurrent updates, MV/OR-set preserve both; (c)
delta shipping moves far fewer bytes than full-state shipping and
op shipping is smallest but needs causal delivery.
"""

import random

import pytest

from common import emit
from repro.analysis import render_table
from repro.crdt import (
    RGA,
    GCounter,
    LWWRegister,
    MVRegister,
    ORSet,
    OpORSet,
    PNCounter,
)
from repro.sim import estimate_size


def random_delivery_convergence(factory, mutate, seed, replicas=3, ops=30):
    """Apply random ops at each replica, merge in random pairings until
    fixpoint, return the converged values."""
    rng = random.Random(seed)
    nodes = [factory(f"r{i}") for i in range(replicas)]
    for _ in range(ops):
        mutate(rng.choice(nodes), rng)
    for _ in range(4):  # more than enough pairwise rounds
        order = list(range(replicas))
        rng.shuffle(order)
        for i in order:
            for j in order:
                if i != j:
                    nodes[i].merge(nodes[j].copy())
    values = [repr(sorted(node.value, key=repr))
              if isinstance(node.value, (frozenset, list))
              else repr(node.value)
              for node in nodes]
    return values


CRDT_CASES = {
    "GCounter": (GCounter, lambda c, rng: c.increment(rng.randint(1, 3))),
    "PNCounter": (
        PNCounter,
        lambda c, rng: (c.increment(2) if rng.random() < 0.6 else c.decrement(1)),
    ),
    "LWWRegister": (LWWRegister, lambda c, rng: c.assign(rng.randint(0, 9))),
    "MVRegister": (MVRegister, lambda c, rng: c.assign(rng.randint(0, 9))),
    "ORSet": (
        ORSet,
        lambda c, rng: (
            c.add(f"e{rng.randint(0, 5)}")
            if rng.random() < 0.7
            else c.remove(f"e{rng.randint(0, 5)}")
        ),
    ),
    "RGA": (
        RGA,
        lambda c, rng: (
            c.insert(rng.randint(0, len(c)), f"x{rng.randint(0, 9)}")
            if rng.random() < 0.8 or len(c) == 0
            else c.delete(rng.randint(0, len(c) - 1))
        ),
    ),
}


def concurrent_update_semantics():
    """Two replicas write concurrently; what survives the merge?"""
    lww_a, lww_b = LWWRegister("a"), LWWRegister("b")
    lww_a.assign("from-a")
    lww_b.assign("from-b")
    lww_a.merge(lww_b)
    mv_a, mv_b = MVRegister("a"), MVRegister("b")
    mv_a.assign("from-a")
    mv_b.assign("from-b")
    mv_a.merge(mv_b)
    or_a, or_b = ORSet("a"), ORSet("b")
    or_a.add("from-a")
    or_b.add("from-b")
    or_a.merge(or_b)
    return {
        "LWWRegister": 1,                    # one survivor (arbitrated)
        "MVRegister": len(mv_a.values),      # both kept as siblings
        "ORSet": len(or_a.value),            # both kept (union)
    }, lww_a.value


def shipping_cost(ops=50, seed=9):
    """Bytes to propagate ``ops`` set updates replica→replica, by mode."""
    rng = random.Random(seed)
    items = [f"item-{rng.randint(0, 20)}" for _ in range(ops)]

    source = ORSet("a")
    full_bytes = delta_bytes = 0
    for item in items:
        delta = source.add(item)
        full_bytes += estimate_size(source.state())
        delta_bytes += estimate_size(delta.state())

    op_source = OpORSet("a")
    op_bytes = 0
    for item in items:
        envelope = op_source.add(item)
        op_bytes += estimate_size(
            (envelope.origin, envelope.clock, envelope.payload)
        )
    return {"state": full_bytes, "delta": delta_bytes, "op": op_bytes}


def test_e6_crdt_convergence(benchmark, capsys):
    rows = []
    for name, (factory, mutate) in CRDT_CASES.items():
        converged = all(
            len(set(random_delivery_convergence(factory, mutate, seed))) == 1
            for seed in (1, 2, 3)
        )
        rows.append([name, converged])
        assert converged, f"{name} failed to converge"
    emit(capsys, render_table(
        ["CRDT", "converged under random delivery (3 seeds)"],
        rows,
        title="E6a: convergence under arbitrary merge order",
    ))

    survivors, lww_value = concurrent_update_semantics()
    emit(capsys, render_table(
        ["type", "values surviving 2 concurrent updates"],
        [[name, count] for name, count in survivors.items()],
        title="E6b: conflict semantics — arbitrate vs. keep",
    ))
    assert survivors["LWWRegister"] == 1     # one update silently lost
    assert survivors["MVRegister"] == 2      # both kept
    assert survivors["ORSet"] == 2
    assert lww_value in ("from-a", "from-b")

    costs = shipping_cost()
    emit(capsys, render_table(
        ["shipping mode", "bytes for 50 OR-Set adds", "delivery requirement"],
        [
            ["full state", costs["state"], "any order, idempotent"],
            ["delta state", costs["delta"], "any order, idempotent"],
            ["operations", costs["op"], "causal, exactly-once"],
        ],
        title="E6c: replication bandwidth by CRDT flavor",
    ))
    assert costs["delta"] < costs["state"] / 5
    assert costs["op"] < costs["delta"] < costs["state"]

    benchmark.pedantic(
        random_delivery_convergence,
        args=(ORSet, CRDT_CASES["ORSet"][1], 1),
        rounds=3, iterations=1,
    )
