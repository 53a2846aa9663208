"""Command-line entry point: ``python -m repro <command>``.

The heavyweight experiment tables live in ``benchmarks/`` (``pytest
benchmarks`` checks each against its golden); the CLI is for quick looks.
Conformance is one command: ``repro chaos --stack S`` grades any stack
of layers over a registered protocol (see :mod:`repro.chaos.runner`).
"""

from __future__ import annotations

import argparse
import importlib
import pathlib
import runpy
import sys
from typing import Any, Callable

#: ``(name, help, flags, handler)`` per command, in ``--help`` order.
_COMMANDS: list[tuple[str, str, tuple, Callable[[argparse.Namespace], int]]] = []


def _register(name: str, help: str, *flags: tuple) -> Callable:
    """Declare the command ``name`` on its handler: the ``--help`` line
    and the flags (:func:`_flag` each) that :func:`main` parses for it."""
    def declare(handler):
        _COMMANDS.append((name, help, flags, handler))
        return handler
    return declare


def _flag(*names: str, **options: Any) -> tuple:
    """One ``add_argument(*names, **options)`` call of a command."""
    return names, options


def _switch(name: str, help: str) -> tuple:
    return _flag(name, action="store_true", help=help)


def _each(name: str, help: str) -> tuple:
    """A repeatable flag; an empty list means the command's default."""
    return _flag(name, action="append", default=[], help=help)


def _check(help: str) -> tuple:
    return _switch("--check-determinism", help)


_SEED = _flag("--seed", type=int, default=42)
_REPLAY = _check("run twice, fail on trace fingerprint drift")


def _examples_dir() -> pathlib.Path:
    # examples/ sits next to src/ in a source checkout.
    here = pathlib.Path(__file__).resolve()
    for parent in here.parents:
        candidate = parent / "examples"
        if candidate.is_dir():
            return candidate
    raise SystemExit("examples/ directory not found (installed without sources?)")


def list_examples() -> list[str]:
    return sorted(path.stem for path in _examples_dir().glob("*.py")
                  if not path.stem.startswith("_"))


@_register("examples", "list runnable examples")
def cmd_examples(_args: argparse.Namespace) -> int:
    for name in list_examples():
        print(name)
    return 0


@_register("run", "run one example", _flag("example"))
def cmd_run(args: argparse.Namespace) -> int:
    name = args.example
    path = _examples_dir() / f"{name}.py"
    if not path.exists():
        print(f"unknown example {name!r}; available: {', '.join(list_examples())}",
              file=sys.stderr)
        return 2
    runpy.run_path(str(path), run_name="__main__")
    return 0


@_register(
    "pbs", "quick PBS grid",
    _flag("--n", type=int, default=3),
    _flag("--t", type=float, default=0.0),
    _flag("--trials", type=int, default=4000),
    _flag("--wan", action="store_true"),
)
def cmd_pbs(args: argparse.Namespace) -> int:
    from .analysis import WARSModel, print_table, simulate_t_visibility

    model = WARSModel.wan() if args.wan else WARSModel.lan()
    rows = []
    n = args.n
    for r in range(1, n + 1):
        for w in range(1, n + 1):
            result = simulate_t_visibility(n, r, w, args.t, model=model,
                                           trials=args.trials)
            rows.append([
                f"R={r} W={w}" + (" *" if r + w > n else ""),
                round(result.p_consistent, 4),
                round(result.mean_read_latency, 2),
                round(result.mean_write_latency, 2),
            ])
    print_table(
        ["config", f"P[consistent @ t={args.t:g}ms]", "read ms", "write ms"],
        rows,
        title=f"PBS t-visibility, N={n} "
              f"({'WAN' if args.wan else 'LAN'} profile; * = R+W>N)",
    )
    return 0


@_register(
    "spectrum", "print the consistency spectrum table",
    _flag("--rounds", type=int, default=15),
    _flag("--seed", type=int, default=1),
)
def cmd_spectrum(args: argparse.Namespace) -> int:
    """The spectrum table (:mod:`repro.scenarios.spectrum`), one read
    per write.  Exit status 2 when ``--rounds`` is below 1."""
    from .scenarios.spectrum import format_spectrum, run_spectrum

    if args.rounds < 1:
        print(f"--rounds must be at least 1, got {args.rounds}",
              file=sys.stderr)
        return 2
    print(format_spectrum(run_spectrum(args.seed, args.rounds, 1), 1))
    return 0


@_register("protocols", "list registered store adapters + capabilities")
def cmd_protocols(_args: argparse.Namespace) -> int:
    """List every registered store adapter with its capability flags."""
    from .analysis import print_table
    from .api import registry

    rows = []
    for spec in registry.specs():
        caps = spec.capabilities
        flags = [flag for flag, shown in (
            ("tentative", caps.tentative_reads),
            ("siblings", caps.multi_value_reads),
            ("fragile", not caps.survives_replica_crash),
        ) if shown]
        rows.append([
            spec.name,
            ",".join(caps.read_modes),
            ",".join(caps.session_guarantees) or "-",
            ",".join(flags) or "-",
            caps.description,
        ])
    print_table(
        ["protocol", "read modes", "session", "flags", "description"],
        rows,
        title=f"{len(rows)} registered protocols (repro.api.registry)",
    )
    return 0


@_register(
    "trace", "summarize a JSONL trace dumped by repro.sim.Tracer",
    _flag("path", help="trace file (.jsonl)"),
    _each("--kind", "keep only this event kind (repeatable), e.g. msg_drop"),
    _flag("--type", help="keep only messages of this payload type"),
    _flag("--since", type=float, default=None,
          help="keep events at/after this sim time (ms)"),
    _flag("--until", type=float, default=None,
          help="keep events at/before this sim time (ms)"),
    _flag("--limit", type=int, default=40,
          help="timeline lines to print (0 = all)"),
    _switch("--summary-only", "skip the timeline, print only summaries"),
)
def cmd_trace(args: argparse.Namespace) -> int:
    from .analysis import print_table
    from .sim.trace import filter_events, kind_counts, load_jsonl, message_summary

    try:
        events = load_jsonl(args.path)
    except (OSError, ValueError) as exc:
        # ValueError covers json.JSONDecodeError on a corrupt line.
        print(f"cannot read trace {args.path!r}: {exc}", file=sys.stderr)
        return 2
    selected = filter_events(
        events, kind=args.kind or None, since=args.since, until=args.until,
        **({"msg_type": args.type} if args.type else {}),
    )

    if not args.summary_only:
        limit = args.limit if args.limit > 0 else len(selected)
        for event in selected[:limit]:
            print(event.format_line())
        if len(selected) > limit:
            print(f"... {len(selected) - limit} more events "
                  f"(raise --limit to see them)")
        print()

    print_table(
        ["kind", "count"],
        sorted(kind_counts(selected).items()),
        title=f"{len(selected)}/{len(events)} trace events selected",
    )
    summary = message_summary(selected)
    if summary:
        # One column per drop reason actually seen, so client-side
        # hedge cancellations are not lumped in with network loss.
        reasons = sorted({reason for row in summary.values()
                          for reason in row["drop_reasons"]})
        print()
        print_table(
            ["message type", "sent", "delivered", "dropped", *reasons],
            [
                [name, row["sent"], row["delivered"], row["dropped"]]
                + [row["drop_reasons"].get(reason, 0) for reason in reasons]
                for name, row in sorted(summary.items())
            ],
            title="per-message-type summary",
        )
    return 0


def _perf_failed(command: str, exc) -> int:
    """One line for a :class:`repro.perf.PerfError`: exit 2 when the
    engine refused the arguments, 1 when a run misbehaved."""
    print(f"{command} failed: {exc}", file=sys.stderr)
    return 2 if exc.bad_input else 1


def _write_json(path: str, doc: dict) -> None:
    import json

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\nwrote {path}")


@_register(
    "bench", "run the seeded macro perf suite (BENCH_CORE.json)",
    _switch("--quick", "CI smoke scale (seconds, not minutes)"),
    _SEED,
    _each("--scenario", "run only this scenario (repeatable; default: all)"),
    _flag("--output", metavar="PATH",
          help="write the BENCH_CORE.json document here"),
    _flag("--compare", metavar="BASELINE",
          help="gate against a baseline BENCH_CORE.json (exit 1 on "
               "regression or behavior-fingerprint change)"),
    _flag("--tolerance", type=float, default=0.30,
          help="allowed fractional events/sec drop for --compare "
               "(default 0.30)"),
    _flag("--repeat", type=int, default=1, metavar="N",
          help="time each scenario N times and keep the best wall time "
               "(defense against machine noise; default 1)"),
    _switch("--no-verify",
            "skip the traced verification pass (no trace hashes)"),
    _flag("--workers", type=int, default=1, metavar="N",
          help="fan scenarios across N worker processes (default 1: "
               "serial — use serial for baseline regeneration, parallel "
               "for fast comparative runs)"),
    _switch("--list", "list scenarios and exit"),
)
def cmd_bench(args: argparse.Namespace) -> int:
    """Run the macro perf scenarios; optionally write BENCH_CORE.json
    and/or gate against a committed baseline."""
    import json

    from .perf import SCENARIOS, PerfError, compare, render_report, run_suite

    if args.list:
        for name, scenario in SCENARIOS.items():
            print(f"{name:<18} {scenario.description}")
        return 0

    try:
        doc = run_suite(
            scenarios=args.scenario or None, seed=args.seed, quick=args.quick,
            verify=not args.no_verify, repeats=args.repeat,
            workers=args.workers,
        )
    except PerfError as exc:
        return _perf_failed("bench", exc)
    print(render_report(doc))

    if args.output:
        _write_json(args.output, doc)

    if args.compare:
        try:
            with open(args.compare, "r", encoding="utf-8") as handle:
                baseline = json.load(handle)
        except (OSError, ValueError) as exc:
            print(f"cannot read baseline {args.compare!r}: {exc}",
                  file=sys.stderr)
            return 2
        problems = compare(doc, baseline, tolerance=args.tolerance)
        if problems:
            print(f"\nFAIL vs baseline {args.compare}:", file=sys.stderr)
            for problem in problems:
                print(f"  - {problem}", file=sys.stderr)
            return 1
        print(f"\nOK vs baseline {args.compare} "
              f"(tolerance {args.tolerance:.0%})")
    return 0


@_register(
    "sweep", "run one scenario across many seeds on a process pool",
    _flag("--scenario", default="quorum_ycsb",
          help="scenario to sweep (default quorum_ycsb; see bench --list)"),
    _flag("--seeds", default="1-8", metavar="SPEC",
          help="seed spec: N, N-M, or comma list e.g. 1,2,5-7 "
               "(default 1-8)"),
    _flag("--workers", type=int, default=1, metavar="N",
          help="worker processes (default 1: serial in-process)"),
    _switch("--quick", "quick per-seed scale (same meaning as bench --quick)"),
    _check("also run serially and fail unless both runs produce the "
           "identical per-seed (trace_hash, metrics_digest) set"),
    _flag("--output", metavar="PATH", help="write the sweep report JSON here"),
)
def cmd_sweep(args: argparse.Namespace) -> int:
    """Fan one scenario's seeds across worker processes; optionally
    prove parallel == serial via the per-seed fingerprint set."""
    from .analysis import render_table
    from .perf import (PerfError, check_parallel_determinism, parse_seeds,
                       run_sweep)

    try:
        seeds = parse_seeds(args.seeds)
        if args.check_determinism:
            serial, report = check_parallel_determinism(
                args.scenario, seeds, workers=args.workers, quick=args.quick,
            )
        else:
            serial = None
            report = run_sweep(
                args.scenario, seeds, workers=args.workers, quick=args.quick,
            )
    except PerfError as exc:
        return _perf_failed("sweep", exc)

    rows = [
        [result.seed, result.events, round(result.events_per_sec, 1),
         round(result.wall_s, 3), result.trace_hash[:12],
         result.metrics_digest[:12]]
        for result in report.results
    ]
    scale = "quick" if report.quick else "full"
    print(render_table(
        ["seed", "events", "events/s", "wall s", "trace hash",
         "metrics digest"],
        rows,
        title=f"repro sweep — {report.scenario}, {scale} scale, "
              f"{report.workers} worker(s)",
    ))
    print(f"\naggregate: {report.total_events} events in "
          f"{report.wall_s:.2f}s across {report.workers} worker(s) = "
          f"{report.aggregate_events_per_sec:,.0f} events/s "
          f"(serial sum of walls: {report.serial_wall_s:.2f}s)")
    if serial is not None:
        speedup = serial.wall_s / max(report.wall_s, 1e-9)
        print(f"determinism: parallel fingerprint set == serial "
              f"({len(report.results)} seeds); parallel speedup "
              f"{speedup:.2f}x over the serial sweep")

    if args.output:
        _write_json(args.output, report.to_json())
    return 0


def _reproduces(first: dict[str, str], run, unit: str | None = None) -> bool:
    """The ``--check-determinism`` gate: ``run()`` again and compare
    its ``{name: fingerprint}`` with ``first``, printing the verdict.
    ``unit`` names what a grid's entries are; single-run commands pass
    one entry named after themselves."""
    again = run()
    if first != again:
        drifted = sorted(n for n in first if first[n] != again.get(n))
        if unit is None:
            print(f"\nFAIL: {drifted[0]} trace fingerprint drifted between "
                  "two identical runs", file=sys.stderr)
        else:
            print(f"\nFAIL: nondeterministic trace fingerprint for "
                  f"{', '.join(drifted)}", file=sys.stderr)
        return False
    if unit is None:
        print("\ndeterminism: identical fingerprints on a second run")
    else:
        print(f"\ndeterminism: {len(first)} {unit} reproduced identical "
              f"fingerprints on a second run")
    return True


def _unknown(what: str, given, allowed) -> bool:
    """Report names in ``given`` that are not ``allowed`` (bad args)."""
    unknown = [name for name in given if name not in allowed]
    if unknown:
        print(f"unknown {what}(s): {', '.join(unknown)}; available: "
              f"{', '.join(allowed)}", file=sys.stderr)
    return bool(unknown)


def _story(args: argparse.Namespace, name: str, run, render) -> int:
    """Run one :mod:`repro.scenarios` script and print its report;
    exit 0 when ``report.ok`` — and, with ``--check-determinism``, a
    second run reproduced the fingerprint — else 1."""
    report = run()
    print(render(report))
    if args.check_determinism and not _reproduces(
        {name: report.fingerprint}, lambda: {name: run().fingerprint},
    ):
        return 1
    return 0 if report.ok else 1


@_register(
    "chaos", "nemesis conformance suite: stacks x fault plan + checkers",
    _SEED,
    _flag("--plan", default="partitions",
          help="fault plan name, or 'random' for a seeded random plan "
               "(default: partitions; see --list)"),
    _check("run the whole grid twice and fail on any trace fingerprint "
           "drift"),
    _each("--stack", "a stack, outer layer first: PROTOCOL, "
                     "sharded:PROTOCOL, cached[POLICY]:... (repeatable; "
                     "default: every registered protocol, bare)"),
    _flag("--nodes", type=int, default=5),
    _flag("--clients", type=int, default=3),
    _flag("--ops", type=int, default=120, help="workload length per cell"),
    _flag("--records", type=int, default=24, help="keys the workload uses"),
    _flag("--intensity", type=float, default=0.5,
          help="fault density for --plan random (0..1, default 0.5)"),
    _switch("--list", "list built-in fault plans and exit"),
)
def cmd_chaos(args: argparse.Namespace) -> int:
    """Run the chaos conformance suite and print the verdict table.

    Each ``--stack`` is one cell: a registered protocol, optionally
    behind ``sharded:`` and then ``cached[POLICY]:`` (see
    :func:`repro.chaos.build_stack`).  Exit status: 0 when every
    cell's declared guarantees hold (or are explicitly waived), 1 on
    any checker FAIL or (with ``--check-determinism``) trace
    fingerprint drift, 2 on bad args.
    """
    from .chaos import (PLANS, format_reports, parse_stack, resolve_plan,
                        run_grid)

    if args.list:
        for name, plan in sorted(PLANS.items()):
            faults = ", ".join(sorted({step.fault for step in plan.steps}))
            print(f"{name:<12} {len(plan.steps)} steps: {faults}")
        return 0
    try:
        for stack in args.stack:
            parse_stack(stack)
        plan = resolve_plan(args.plan, args.seed, args.intensity)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2

    def run():
        return run_grid(args.stack, seed=args.seed, plan=plan, ops=args.ops,
                        nodes=args.nodes, clients=args.clients,
                        records=args.records)

    reports = run()
    print(format_reports(reports))
    if args.check_determinism and not _reproduces(
        {r.stack: r.fingerprint for r in reports},
        lambda: {r.stack: r.fingerprint for r in run()}, "cell(s)",
    ):
        return 1
    return 0 if all(report.ok for report in reports) else 1


@_register(
    "load", "open-loop load generator + hot-key storm demo",
    _flag("--protocol", default="quorum"),
    _flag("--nodes", type=int, default=3),
    _SEED,
    _flag("--arrivals", default="poisson",
          choices=("poisson", "diurnal", "flash"),
          help="arrival process (default: poisson)"),
    _flag("--rate", type=float, default=2000.0,
          help="peak offered rate, ops/sec"),
    _flag("--base", type=float, default=200.0,
          help="baseline rate for diurnal/flash"),
    _flag("--period", type=float, default=60_000.0,
          help="diurnal cycle length (ms)"),
    _flag("--spike-at", type=float, default=500.0,
          help="flash-crowd spike start (ms)"),
    _flag("--hold", type=float, default=2000.0,
          help="flash-crowd spike hold (ms)"),
    _flag("--decay", type=float, default=1000.0,
          help="flash-crowd decay constant (ms)"),
    _flag("--duration", type=float, default=4000.0,
          help="offered-traffic window (ms)"),
    _flag("--sessions", type=int, default=1000),
    _flag("--timeout", type=float, default=250.0,
          help="per-op client timeout (ms)"),
    _flag("--preset", default="B", help="YCSB preset for the op mix (default B)"),
    _flag("--records", type=int, default=100,
          help="keyspace size (small = hotter keys)"),
    _flag("--service-time", type=float, default=1.0,
          help="per-node service time (ms/request)"),
    _flag("--queue-limit", type=int, default=None,
          help="bounded service queue (default: off)"),
    _flag("--admission-rate", type=float, default=None,
          help="token-bucket ops/sec/node (default: off)"),
    _switch("--storm", "run the three-leg hot-key storm demo instead"),
    _check("with --storm: run twice, fail on fingerprint drift"),
)
def cmd_load(args: argparse.Namespace) -> int:
    """Open-loop load generator (``repro load``), plus the hot-key
    storm demo (``repro load --storm``).

    Exit status: 0 on success; for ``--storm``, 1 when the collapse /
    prevention / convergence verdicts fail or (with
    ``--check-determinism``) the fingerprint drifts between two runs;
    2 on an unknown ``--protocol`` / ``--preset``, an arrival process
    or store that refuses its options (a rate or a node count under
    one), or ``--check-determinism`` without ``--storm``.
    """
    from .api import registry
    from .workload import PRESETS

    if _unknown("protocol", [args.protocol], registry.names()) \
            or _unknown("preset", [args.preset], sorted(PRESETS)):
        return 2
    if args.storm:
        from .scenarios import format_storm, run_storm

        try:
            return _story(args, "storm", lambda: run_storm(
                seed=args.seed, protocol=args.protocol, nodes=args.nodes,
            ), format_storm)
        except ValueError as exc:   # the first leg refused its options
            print(exc, file=sys.stderr)
            return 2
    if args.check_determinism:
        print("--check-determinism replays the --storm demo; a plain load "
              "run has nothing to replay", file=sys.stderr)
        return 2

    from .analysis import print_table
    from .sim import FixedLatency, Network, Simulator
    from .workload import (
        DiurnalArrivals,
        FlashCrowdArrivals,
        PoissonArrivals,
        YCSBWorkload,
        run_workload,
    )

    sim = Simulator(seed=args.seed)
    network = Network(sim, latency=FixedLatency(2.0))
    try:
        if args.arrivals == "poisson":
            arrivals = PoissonArrivals(rate=args.rate, seed=args.seed)
        elif args.arrivals == "diurnal":
            arrivals = DiurnalArrivals(low=args.base, high=args.rate,
                                       period=args.period, seed=args.seed)
        else:   # flash, the last of the flag's choices
            arrivals = FlashCrowdArrivals(
                base=args.base, spike=args.rate, spike_at=args.spike_at,
                hold=args.hold, decay=args.decay, seed=args.seed,
            )
        store = registry.build(
            args.protocol, sim, network, nodes=args.nodes,
            service_time=args.service_time, queue_limit=args.queue_limit,
            admission_rate=args.admission_rate,
        )
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    result = run_workload(
        store, YCSBWorkload(args.preset, records=args.records, seed=args.seed),
        clients=args.sessions, until=args.duration, arrivals=arrivals,
        timeout=args.timeout, seed=args.seed,
    )
    metrics = sim.metrics
    print_table(
        ["metric", "value"],
        [
            ["offered ops", result.offered],
            ["offered rate (ops/s)", round(result.offered_rate, 1)],
            ["completed ok", result.ok],
            ["goodput (ops/s)", round(result.goodput, 1)],
            ["failed", result.failed],
            ["shed (client-visible)", result.shed],
            ["shed (server-side)", metrics.counter("server.shed").value],
            ["queue depth peak", metrics.gauge("server.queue_depth_peak").value],
            ["read p50 / p99 (ms)",
             f"{result.read_latency.percentile(50):.1f} / "
             f"{result.read_latency.percentile(99):.1f}"],
            ["write p50 / p99 (ms)",
             f"{result.write_latency.percentile(50):.1f} / "
             f"{result.write_latency.percentile(99):.1f}"],
            ["sessions used", result.sessions_used],
        ],
        title=f"open-loop {args.arrivals} load: {args.protocol}, "
              f"{args.nodes} nodes, {args.duration:g}ms window",
    )
    return 0


@_register(
    "scale", "elastic-scaling demo: ring moves under live load",
    _SEED,
    _flag("--protocol", default="quorum"),
    _flag("--shards", type=int, default=2,
          help="starting (and final) shard count"),
    _flag("--peak", type=int, default=4, help="shard count to scale out to"),
    _flag("--rate", type=float, default=600.0, help="offered load, ops/sec"),
    _flag("--duration", type=float, default=3000.0,
          help="offered-traffic window (ms)"),
    _REPLAY,
)
def cmd_scale(args: argparse.Namespace) -> int:
    """Run the elastic-scaling demo (``repro scale``).

    Exit status: 0 when both ring moves commit, no acknowledged write
    is lost, and the store converges; 1 on any verdict failure or
    (with ``--check-determinism``) fingerprint drift between two runs;
    2 on an unknown ``--protocol``.
    """
    from .api import registry
    from .scenarios import format_scale, run_scale_demo

    if _unknown("protocol", [args.protocol], registry.names()):
        return 2
    return _story(args, "scale", lambda: run_scale_demo(
        seed=args.seed, protocol=args.protocol, shards=args.shards,
        peak=args.peak, rate=args.rate, duration=args.duration,
    ), format_scale)


@_register(
    "multiregion", "multi-region flagship: region loss, failover, RTO/RPO",
    _SEED,
    _each("--protocol", "run only this protocol leg (repeatable; default: "
                        "timeline, primary_backup, quorum)"),
    _switch("--quick", "CI smoke scale: fewer shards and keys"),
    _REPLAY,
)
def cmd_multiregion(args: argparse.Namespace) -> int:
    """Run the multi-region flagship scenario (``repro multiregion``).

    Exit status: 0 when every protocol recovers from the region loss,
    local follower reads beat cross-region primary reads, and the
    quorum leg loses no acknowledged write; 1 on any verdict failure
    or (with ``--check-determinism``) fingerprint drift between runs;
    2 on an unknown ``--protocol``.
    """
    from .scenarios import format_multiregion, run_multiregion
    from .scenarios.multiregion import PROTOCOL_KWARGS

    protocols = tuple(args.protocol) or ("timeline", "primary_backup",
                                         "quorum")
    if _unknown("protocol", protocols, sorted(PROTOCOL_KWARGS)):
        return 2
    return _story(args, "multiregion", lambda: run_multiregion(
        seed=args.seed, protocols=protocols, quick=args.quick,
    ), format_multiregion)


@_register("selftest", "import everything + smoke simulation")
def cmd_selftest(_args: argparse.Namespace) -> int:
    import pkgutil

    import repro

    count = 0
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        importlib.import_module(info.name)
        count += 1
    print(f"imported {count} modules")

    from repro import Simulator
    from repro.api import registry
    from repro.checkers import check_linearizability
    from repro.workload import OpSpec, run_workload

    sim = Simulator(seed=1)
    store = registry.build("quorum", sim, nodes=5, n=3, r=2, w=2)
    history = run_workload(
        store, [OpSpec("update", "k", "ok"), OpSpec("read", "k")]
    ).history
    assert [op.value for op in history] == ["ok", "ok"]
    assert check_linearizability(history).ok
    print("smoke simulation ok (write/read/check on a 5-node quorum store)")
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help, flags, handler in _COMMANDS:
        command = sub.add_parser(name, help=help)
        for names, options in flags:
            command.add_argument(*names, **options)
        command.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    return args.handler(args)
