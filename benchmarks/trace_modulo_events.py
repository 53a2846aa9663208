"""Did anything but event bookkeeping move?  The re-baseline proof of PR 21.

    python3 benchmarks/trace_modulo_events.py bench/quorum_closed [SEED [OUT.jsonl]]
    python3 benchmarks/trace_modulo_events.py core/quorum_ycsb [SEED [OUT.jsonl]]
    python3 benchmarks/trace_modulo_events.py A.jsonl B.jsonl

Runs a ``bench/`` workload (full size) or a ``BENCH_CORE`` scenario (quick)
under a ``Tracer`` and prints its events, metrics digest and the SHA-256 of
the JSONL with ``event_executed`` lines dropped: every send, delivery, drop,
crash and annotation, at its instant, in order.  Equal at two commits (copy
this file into the other checkout) means only ``seq`` numbering moved.

Beside them it prints the same hash with every message record whose
``src == dst`` dropped as well, and the metrics digest with the ``net.*``
counters dropped: equal at two commits means the only change is messages a
node no longer sends to itself (and the events and counts they cost).
"""
import hashlib
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]


def _digest(kept: list) -> str:
    return f"{hashlib.sha256(''.join(kept).encode()).hexdigest()} ({len(kept)} records)"


def modulo_events(jsonl: str) -> str:
    kept = [line for line in jsonl.splitlines(True) if '"kind": "event_executed"' not in line]
    return _digest(kept)


def _loopback(line: str) -> bool:
    if '"kind": "msg_' not in line:
        return False
    record = json.loads(line)
    return record["src"] == record["dst"]


def modulo_loopback(jsonl: str) -> str:
    """:func:`modulo_events`, with messages a node sent itself dropped too."""
    kept = [line for line in jsonl.splitlines(True)
            if '"kind": "event_executed"' not in line and not _loopback(line)]
    return _digest(kept)


def digest_modulo_net(snapshot: dict) -> str:
    """The metrics digest of ``snapshot`` without its ``net.*`` counters."""
    from repro.perf import metrics_digest
    counters = {name: value for name, value in snapshot["counters"].items()
                if not name.startswith("net.")}
    return metrics_digest({**snapshot, "counters": counters})[:16]


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
    snapshot, jsonl = sim.metrics.snapshot(), tracer.dumps_jsonl()
    return (f"{target} seed {seed}: events {sim.events_processed}  "
            f"metrics_digest {metrics_digest(snapshot)[:16]}  "
            f"trace modulo event_executed {modulo_events(jsonl)}\n"
            f"  modulo loopback: metrics_digest without net.* {digest_modulo_net(snapshot)}  "
            f"trace without src == dst messages {modulo_loopback(jsonl)}")


if __name__ == "__main__":
    if sys.argv[1].endswith(".jsonl"):
        texts = [pathlib.Path(path).read_text() for path in sys.argv[1:3]]
        for modulo in (modulo_events, modulo_loopback):
            hashes = [modulo(text) for text in texts]
            print(modulo.__name__, *hashes,
                  "EQUAL" if hashes[0] == hashes[1] else "DIFFERENT", sep="\n  ")
        sys.exit(modulo_events(texts[0]) != modulo_events(texts[1]))
    print(run(sys.argv[1], int(sys.argv[2]) if sys.argv[2:] else 42, *sys.argv[3:4]))
