"""``benchmarks/crdt_state_digest.py`` is a library too: its ``digest()``
patches the CRDT constructors of the catalogue it runs, and must put
them back so a second call in the same process measures the same run."""

import importlib.util
import pathlib
import sys

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "crdt_state_digest.py"


def test_digest_twice_in_one_process_is_equal(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/ and bench/
    spec = importlib.util.spec_from_file_location("crdt_state_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    from repro.perf import scenarios
    constructors = (scenarios.ORSet, scenarios.GCounter)
    first = module.digest("core/crdt_merge_storm", 42)
    second = module.digest("core/crdt_merge_storm", 42)
    assert first[2] > 0
    assert second == first
    assert (scenarios.ORSet, scenarios.GCounter) == constructors
