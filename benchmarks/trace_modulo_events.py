"""Did anything but event bookkeeping move?  The re-baseline proof of PR 21.

    python3 benchmarks/trace_modulo_events.py bench/quorum_closed [SEED [OUT.jsonl]]
    python3 benchmarks/trace_modulo_events.py core/quorum_ycsb [SEED [OUT.jsonl]]
    python3 benchmarks/trace_modulo_events.py A.jsonl B.jsonl

Runs a ``bench/`` workload (full size) or a ``BENCH_CORE`` scenario (quick)
under a ``Tracer`` and prints its events, metrics digest and the SHA-256 of
the JSONL with ``event_executed`` lines dropped: every send, delivery, drop,
crash and annotation, at its instant, in order.  Equal at two commits (copy
this file into the other checkout) means only ``seq`` numbering moved.
"""
import hashlib
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]


def modulo_events(jsonl: str) -> str:
    kept = [line for line in jsonl.splitlines(True) if '"kind": "event_executed"' not in line]
    return f"{hashlib.sha256(''.join(kept).encode()).hexdigest()} ({len(kept)} records)"


def run(target: str, seed: int = 42, dump: str | None = None) -> str:
    import workloads
    from repro.perf import SCENARIOS, metrics_digest
    from repro.sim import Tracer
    (catalogue, name), tracer = target.split("/"), Tracer()
    if catalogue == "core":
        sim = SCENARIOS[name].run(seed, True, tracer).sim
    else:
        workload = workloads.WORKLOADS[name]
        world = workload.build(seed, workload.ops, tracer)
        workload.run(world)
        sim = world.sim
    if dump:
        tracer.dump_jsonl(dump)
    digest = metrics_digest(sim.metrics.snapshot())[:16]
    return (f"{target} seed {seed}: events {sim.events_processed}  metrics_digest {digest}  "
            f"trace modulo event_executed {modulo_events(tracer.dumps_jsonl())}")


if __name__ == "__main__":
    if sys.argv[1].endswith(".jsonl"):
        hashes = [modulo_events(pathlib.Path(path).read_text()) for path in sys.argv[1:3]]
        print(*hashes, "EQUAL" if hashes[0] == hashes[1] else "DIFFERENT", sep="\n")
        sys.exit(hashes[0] != hashes[1])
    print(run(sys.argv[1], int(sys.argv[2]) if sys.argv[2:] else 42, *sys.argv[3:4]))
