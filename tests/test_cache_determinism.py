"""Determinism regression: the cache tier must not leak nondeterminism.

Same seed + same cell => byte-identical trace fingerprints, for every
policy, even under a seeded *random* fault plan.  This is the property
``repro cache --check-determinism`` gates in CI; the tests here pin it
per policy and through the CLI entry point.
"""

import pytest

from repro import cli
from repro.cache import POLICIES
from repro.chaos import random_plan, run_cell


def run_cache_cell(adapter, policy, **knobs):
    # The cache grid's cell size (what ``repro cache`` runs).
    return run_cell(adapter, policy, nodes=3, clients=2, records=16, **knobs)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("seed", (7, 11))
def test_cell_trace_is_byte_identical_per_seed(policy, seed):
    plan = random_plan(seed, intensity=0.5)
    first = run_cache_cell("quorum", policy, seed=seed, plan=plan, ops=40)
    second = run_cache_cell("quorum", policy, seed=seed, plan=plan, ops=40)
    assert first.fingerprint == second.fingerprint
    assert first.ops_ok == second.ops_ok
    assert first.hit_rate == second.hit_rate
    assert first.stale_by_tier == second.stale_by_tier
    assert [(c.guarantee, c.status) for c in first.results] == \
        [(c.guarantee, c.status) for c in second.results]


def test_ttl_jitter_is_seeded_not_wallclock():
    plan = random_plan(3, intensity=0.4)
    runs = [
        run_cache_cell("quorum", "read_through", seed=3, plan=plan,
                       ops=40, ttl=40.0)
        for _ in range(2)
    ]
    assert runs[0].fingerprint == runs[1].fingerprint


def test_cli_cache_check_determinism(capsys):
    exit_code = cli.main([
        "cache", "--adapter", "quorum", "--policy", "write_behind",
        "--ops", "30", "--check-determinism",
    ])
    out = capsys.readouterr().out
    assert exit_code == 0
    assert "determinism: 1 cell(s) reproduced identical fingerprints" in out
    assert "PASS" in out


def test_cli_cache_rejects_unknown_cell(capsys):
    assert cli.main(["cache", "--adapter", "nope"]) == 2
    assert cli.main(["cache", "--policy", "write_around"]) == 2
    assert cli.main(["cache", "--plan", "nope"]) == 2
