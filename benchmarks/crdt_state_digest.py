"""Did any replica's state move?  The byte-identity proof of PR 23.

    python3 benchmarks/crdt_state_digest.py bench/crdt_merge_storm [SEED]
    python3 benchmarks/crdt_state_digest.py core/crdt_merge_storm [SEED [full]]

Prints the SHA-256 over every replica's ``[state(), list(_dots)]``: what it
holds and its element order.  Copy this file into the other checkout to compare.
"""
import hashlib
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]


def digest(target: str, seed: int = 42, scale: str = "quick") -> str:
    import workloads
    from repro.perf import scenarios
    (catalogue, name), made = target.split("/"), []
    module = workloads if catalogue == "bench" else scenarios
    for cls in (module.ORSet, module.GCounter):  # record the replicas the run builds
        setattr(module, cls.__name__, lambda rid, cls=cls: made.append(cls(rid)) or made[-1])
    if catalogue == "bench":
        workload = workloads.WORKLOADS[name]
        workload.run(workload.build(seed, workload.ops, None))
    else:
        scenarios.SCENARIOS[name].run(seed, scale != "full", None)
    payload = [[crdt.state(), list(getattr(crdt, "_dots", ()))] for crdt in made]
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


if __name__ == "__main__":
    seed, scale = map(int, sys.argv[2:3]), sys.argv[3:4]
    print(*sys.argv[1:], "state digest", digest(sys.argv[1], *seed, *scale))
