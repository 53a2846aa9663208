"""Tests for the FaultPlan DSL (repro.chaos.plan)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import PLANS, FaultPlan, random_plan, step


# ----------------------------------------------------------------------
# Step validation
# ----------------------------------------------------------------------

def test_step_requires_exactly_one_of_at_or_every():
    with pytest.raises(ValueError):
        step("heal")
    with pytest.raises(ValueError):
        step("heal", at=10.0, every=5.0)
    assert step("heal", at=10.0).at == 10.0
    assert step("heal", every=5.0).every == 5.0


def test_step_rejects_unknown_fault_and_bad_times():
    with pytest.raises(ValueError):
        step("meteor", at=1.0)
    with pytest.raises(ValueError):
        step("heal", at=-1.0)
    with pytest.raises(ValueError):
        step("heal", every=0.0)
    with pytest.raises(ValueError):
        step("heal", at=1.0, until=5.0)  # until needs every


def test_step_rejects_unknown_partition_shape():
    with pytest.raises(ValueError):
        step("partition", at=1.0, shape="pentagram")
    for shape in ("halves", "ring", "bridge"):
        assert step("partition", at=1.0, shape=shape).param("shape") == shape


def test_step_params_are_order_independent():
    a = step("drop", at=5.0, rate=0.4, duration=80.0)
    b = step("drop", at=5.0, duration=80.0, rate=0.4)
    assert a == b
    assert a.canonical() == b.canonical()
    assert a.param("rate") == 0.4
    assert a.param("missing", "fallback") == "fallback"


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------

def test_from_steps_accepts_dicts_and_steps():
    plan = FaultPlan.from_steps("p", [
        {"at": 40, "fault": "partition", "shape": "halves"},
        step("heal", at=100),
    ], seed=3)
    assert plan.seed == 3
    assert plan.steps[0].fault == "partition"
    assert plan.steps[0].param("shape") == "halves"
    assert plan.steps[1].fault == "heal"


def test_builtin_plans_validate_and_heal():
    for name, plan in PLANS.items():
        assert plan.name == name
        assert plan.steps
        # Every built-in plan is safe as a conformance default: it must
        # not leave the network partitioned at the end of its schedule.
        heal, partition = (
            max((s.at for s in plan.steps
                 if s.fault == fault and s.at is not None), default=-1)
            for fault in ("heal", "partition")
        )
        assert heal >= partition, name


def test_canonical_is_stable_identity():
    plan = PLANS["partitions"]
    assert plan.canonical() == plan.canonical()
    assert plan.canonical() != PLANS["mixed"].canonical()
    assert "partition" in plan.canonical()


# ----------------------------------------------------------------------
# random_plan properties
# ----------------------------------------------------------------------

def test_random_plan_rejects_bad_intensity():
    with pytest.raises(ValueError):
        random_plan(1, intensity=0.0)
    with pytest.raises(ValueError):
        random_plan(1, intensity=1.5)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       intensity=st.floats(min_value=0.1, max_value=1.0))
def test_random_plan_is_deterministic_and_well_formed(seed, intensity):
    plan = random_plan(seed, intensity=intensity)
    again = random_plan(seed, intensity=intensity)
    # Same seed -> identical plan, identical canonical form.
    assert plan == again
    assert plan.canonical() == again.canonical()
    # Steps validated on construction; schedule is sorted and in range.
    ats = [s.at for s in plan.steps if s.at is not None]
    assert ats == sorted(ats)
    assert all(a >= 0 for a in ats)
    # Always closes with heal + recover, so it never ends partitioned.
    assert plan.steps[-2].fault == "heal"
    assert plan.steps[-1].fault == "recover"


def test_random_plan_seeds_differ():
    assert random_plan(1).canonical() != random_plan(2).canonical()
