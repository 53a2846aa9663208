"""Did any replica's state move?  Did any replica's membership move?

    python3 benchmarks/crdt_state_digest.py bench/crdt_merge_storm [SEED]
    python3 benchmarks/crdt_state_digest.py core/crdt_merge_storm [SEED [full]]

Prints two SHA-256 digests.  The *state digest* is over every replica's
``[state(), list(_dots)]`` at the end of the run: what it holds and its
element order.  The *values digest* is over every ``ORSet`` replica's
``sorted(value)`` after every ``merge``: a change of representation
(which dots an element keeps) moves the first and must leave the second
alone.  Copy this file into the other checkout to compare.
"""
import hashlib
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]


def digest(target: str, seed: int = 42, scale: str = "quick") -> tuple[str, str, int]:
    """``(state digest, values digest, ORSet merges seen)`` of one run."""
    import workloads
    from repro.perf import scenarios
    (catalogue, name), made = target.split("/"), []
    module = workloads if catalogue == "bench" else scenarios
    values = []     # [replica id, sorted(value)] after every ORSet merge

    def build(cls, rid):
        crdt = cls(rid)
        made.append(crdt)
        if cls.__name__ == "ORSet":
            join = crdt.merge

            def merge(other):
                join(other)
                values.append([rid, sorted(crdt.value)])
                return crdt
            crdt.merge = merge  # an instance attribute: copies do not carry it
        return crdt

    originals = {"ORSet": module.ORSet, "GCounter": module.GCounter}
    for attr, cls in originals.items():  # record the replicas the run builds
        setattr(module, attr, lambda rid, cls=cls: build(cls, rid))
    try:
        if catalogue == "bench":
            workload = workloads.WORKLOADS[name]
            workload.run(workload.build(seed, workload.ops, None))
        else:
            scenarios.SCENARIOS[name].run(seed, scale != "full", None)
    finally:
        for attr, cls in originals.items():
            setattr(module, attr, cls)
    if not values:
        raise RuntimeError(f"{target}: the run recorded no ORSet merge")
    payload = [[crdt.state(), list(getattr(crdt, "_dots", ()))] for crdt in made]
    return (hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest(),
            hashlib.sha256(json.dumps(values).encode()).hexdigest(), len(values))


if __name__ == "__main__":
    seed, scale = map(int, sys.argv[2:3]), sys.argv[3:4]
    state, values, merges = digest(sys.argv[1], *seed, *scale)
    print(*sys.argv[1:], "state digest", state)
    print(*sys.argv[1:], "values digest", values, f"({merges} merges)")
