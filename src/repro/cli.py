"""Command-line entry point: ``python -m repro <command>``.

Commands
--------
``examples``            list the runnable examples
``run <example>``       run one example by name (e.g. ``run quickstart``)
``pbs``                 print a quick PBS t-visibility grid
``protocols``           list registered store adapters + capabilities
``spectrum``            print the E1-style consistency spectrum table
                        (built through the registry + workload driver)
``trace <file.jsonl>``  print a filtered timeline + summary of a sim trace
``bench``               run the seeded macro perf suite (BENCH_CORE.json)
``chaos``               run the nemesis conformance suite: every adapter
                        under a seeded fault plan, checker verdict table
``cache``               run the cache conformance grid: every cache
                        policy over every adapter, histories recorded at
                        the cache boundary, checker verdict per cell
``load``                open-loop load generator (Poisson/diurnal/flash
                        arrivals); ``--storm`` runs the hot-key storm demo
``scale``               elastic-scaling demo: live ring moves under
                        open-loop load, durability + convergence verdicts
``multiregion``         flagship multi-region scenario: sharded clusters
                        spread over three continents, follower reads,
                        region loss + failover, RTO/RPO per protocol
``selftest``            import every module and run a smoke simulation

The heavyweight experiment tables live in ``benchmarks/`` (run with
``pytest benchmarks/ --benchmark-only``); the CLI is for quick looks.
"""

from __future__ import annotations

import argparse
import importlib
import pathlib
import runpy
import sys


def _examples_dir() -> pathlib.Path:
    # examples/ sits next to src/ in a source checkout.
    here = pathlib.Path(__file__).resolve()
    for parent in here.parents:
        candidate = parent / "examples"
        if candidate.is_dir():
            return candidate
    raise SystemExit("examples/ directory not found (installed without sources?)")


def list_examples() -> list[str]:
    return sorted(
        path.stem
        for path in _examples_dir().glob("*.py")
        if not path.stem.startswith("_")
    )


def cmd_examples(_args: argparse.Namespace) -> int:
    for name in list_examples():
        print(name)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    name = args.example
    path = _examples_dir() / f"{name}.py"
    if not path.exists():
        print(f"unknown example {name!r}; available: {', '.join(list_examples())}",
              file=sys.stderr)
        return 2
    runpy.run_path(str(path), run_name="__main__")
    return 0


def cmd_pbs(args: argparse.Namespace) -> int:
    from .analysis import WARSModel, print_table, simulate_t_visibility

    model = WARSModel.wan() if args.wan else WARSModel.lan()
    rows = []
    n = args.n
    for r in range(1, n + 1):
        for w in range(1, n + 1):
            result = simulate_t_visibility(
                n, r, w, args.t, model=model, trials=args.trials,
            )
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


def cmd_protocols(_args: argparse.Namespace) -> int:
    """List every registered store adapter with its capability flags."""
    from .analysis import print_table
    from .api import registry

    rows = []
    for spec in registry.specs():
        caps = spec.capabilities
        flags = []
        if caps.tentative_reads:
            flags.append("tentative")
        if caps.multi_value_reads:
            flags.append("siblings")
        if not caps.networked:
            flags.append("direct")
        if not caps.survives_replica_crash:
            flags.append("fragile")
        rows.append([
            spec.name,
            ",".join(caps.read_modes),
            ",".join(caps.session_guarantees) or "-",
            "yes" if caps.has_history else "no",
            ",".join(flags) or "-",
            caps.description,
        ])
    print_table(
        ["protocol", "read modes", "session", "history", "flags",
         "description"],
        rows,
        title=f"{len(rows)} registered protocols (repro.api.registry)",
    )
    return 0


#: ``repro spectrum`` rungs: registry name, label, build kwargs, session
#: kwargs, read mode.  Node ids n0/n1/n2 map to us-east/eu/asia; the
#: client sits in the EU.
_SPECTRUM_RUNGS = [
    ("quorum", "eventual (R=W=1)",
     dict(n=3, r=1, w=1, op_deadline=2_000.0), dict(coordinator="n1"), None),
    ("quorum", "quorum (R=W=2)",
     dict(n=3, r=2, w=2, op_deadline=2_000.0), dict(coordinator="n1"), None),
    ("causal", "causal (local)", {}, dict(home="n1"), None),
    ("timeline", "timeline (read local)", {}, dict(home="n1"), "any"),
    ("timeline", "session RYW+MR",
     {}, dict(home="n1", guarantees=("ryw", "mr"), retry_delay=10.0), "any"),
    ("pileus", "pileus (SLA reads)", {}, dict(home="n1"), None),
    ("primary_backup", "primary-backup (async)", dict(mode="async"), {}, None),
    ("multipaxos", "strong (paxos)", {}, {}, None),
    ("chain", "strong (chain)", {}, {}, None),
]


def cmd_spectrum(args: argparse.Namespace) -> int:
    """The E1-style spectrum table, produced through the store registry
    and the protocol-agnostic workload driver."""
    from .analysis import print_table
    from .api import registry
    from .checkers import check_linearizability, stale_read_fraction
    from .sim import THREE_CONTINENTS, Network, Simulator
    from .workload import OpSpec, WorkloadDriver

    sites = ("us-east", "eu", "asia")
    node_ids = ["n0", "n1", "n2"]
    rounds = args.rounds
    ops = []
    for i in range(rounds):
        key = f"key-{i % 3}"
        ops += [OpSpec("update", key, f"v{i}"), OpSpec("sleep", "", 5.0),
                OpSpec("read", key), OpSpec("sleep", "", 5.0)]

    rows = []
    for name, label, build_kwargs, session_kwargs, read_mode in _SPECTRUM_RUNGS:
        sim = Simulator(seed=args.seed)
        placement = dict(zip(node_ids, sites))
        placement["client-eu"] = "eu"
        network = Network(
            sim, latency=THREE_CONTINENTS.latency_model(placement, jitter=0.05)
        )
        store = registry.build(name, sim, network, nodes=3,
                               node_ids=node_ids, **build_kwargs)
        if hasattr(store.cluster, "set_master"):
            for i in range(3):
                store.cluster.set_master(f"key-{i}", "n0")
        session_kwargs = dict(session_kwargs)
        if store.capabilities.networked:
            session_kwargs["client_id"] = "client-eu"
        driver = WorkloadDriver(sim)
        driver.add_session(store.session("eu-user", **session_kwargs), ops,
                           read_mode=read_mode, timeout=4_000.0)
        result = driver.run()
        history = result.history
        rows.append([
            label,
            round(result.read_latency.mean, 1),
            round(result.write_latency.mean, 1),
            round(stale_read_fraction(history), 3),
            check_linearizability(history).ok,
        ])
    print_table(
        ["protocol", "read ms", "write ms", "stale reads", "linearizable"],
        rows,
        title="consistency spectrum, one EU client, replicas on "
              "us-east/eu/asia (registry-driven)",
    )
    return 0


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
        events,
        kind=args.kind or None,
        since=args.since,
        until=args.until,
    )
    if args.type:
        selected = [
            ev for ev in selected if ev.data.get("msg_type") == args.type
        ]

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
        reasons = sorted({
            reason
            for row in summary.values()
            for reason in row["drop_reasons"]
        })
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
            scenarios=args.scenario or None,
            seed=args.seed,
            quick=args.quick,
            verify=not args.no_verify,
            repeats=args.repeat,
            workers=args.workers,
        )
    except PerfError as exc:
        return _perf_failed("bench", exc)
    print(render_report(doc))

    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nwrote {args.output}")

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


def cmd_sweep(args: argparse.Namespace) -> int:
    """Fan one scenario's seeds across worker processes; optionally
    prove parallel == serial via the per-seed fingerprint set."""
    import json

    from .analysis import render_table
    from .perf import (
        PerfError,
        check_parallel_determinism,
        parse_seeds,
        run_sweep,
    )

    try:
        seeds = parse_seeds(args.seeds)
        if args.check_determinism and args.workers > 1:
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
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nwrote {args.output}")
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


def _conformance(args: argparse.Namespace, protocols, policies, unit: str,
                 intensity: float = 0.5, **knobs) -> int:
    """Run one conformance grid and print its verdict table."""
    from .chaos import format_reports, resolve_plan, run_grid

    try:
        plan = resolve_plan(args.plan, args.seed, intensity)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2

    def run():
        return run_grid(protocols, policies, seed=args.seed, plan=plan,
                        ops=args.ops, **knobs)

    reports = run()
    print(format_reports(reports))
    if args.check_determinism and not _reproduces(
        {r.name: r.fingerprint for r in reports},
        lambda: {r.name: r.fingerprint for r in run()}, unit,
    ):
        return 1
    return 0 if all(report.ok for report in reports) else 1


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


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run the chaos conformance suite and print the verdict table.

    Exit status: 0 when every protocol's declared guarantees hold (or
    are explicitly waived), 1 on any checker FAIL or (with
    ``--check-determinism``) trace fingerprint drift, 2 on bad args.
    """
    from .api import registry
    from .chaos import PLANS

    if args.list:
        for name, plan in sorted(PLANS.items()):
            faults = ", ".join(
                sorted({plan_step.fault for plan_step in plan.steps})
            )
            print(f"{name:<12} {len(plan.steps)} steps: {faults}")
        return 0

    if _unknown("protocol", args.protocol, registry.names()):
        return 2
    return _conformance(args, args.protocol or None, (None,), "protocol(s)",
                        intensity=args.intensity, nodes=args.nodes,
                        clients=args.clients)


def cmd_cache(args: argparse.Namespace) -> int:
    """Run the cache conformance grid: the engine and grading rule of
    ``repro chaos`` one tier up — each adapter behind each cache policy
    (``uncached``: bare), the history recorded at the cache boundary,
    at a smaller cell size.  Exit status as for ``repro chaos``.
    """
    from .cache import POLICIES
    from .chaos import cacheable_protocols

    adapters = cacheable_protocols()
    policies = args.policy or list(POLICIES)
    if _unknown("adapter", args.adapter, adapters) \
            or _unknown("policy", policies, (*POLICIES, "uncached")):
        return 2
    return _conformance(
        args, args.adapter or adapters,
        [None if p == "uncached" else p for p in policies],
        "cell(s)", nodes=3, clients=2, records=16,
    )


def cmd_load(args: argparse.Namespace) -> int:
    """Open-loop load generator (``repro load``), plus the hot-key
    storm demo (``repro load --storm``).

    Exit status: 0 on success; for ``--storm``, 1 when the collapse /
    prevention / convergence verdicts fail or (with
    ``--check-determinism``) the fingerprint drifts between two runs;
    2 on an unknown ``--protocol`` / ``--preset``.
    """
    from .api import registry
    from .workload import PRESETS

    if _unknown("protocol", [args.protocol], registry.names()) \
            or _unknown("preset", [args.preset], sorted(PRESETS)):
        return 2
    if args.storm:
        from .scenarios import format_storm, run_storm

        return _story(args, "storm", lambda: run_storm(
            seed=args.seed, protocol=args.protocol, nodes=args.nodes,
        ), format_storm)

    from .analysis import print_table
    from .sim import FixedLatency, Network, Simulator
    from .workload import (
        DiurnalArrivals,
        FlashCrowdArrivals,
        OpenLoopDriver,
        PoissonArrivals,
        YCSBWorkload,
    )

    if args.arrivals == "poisson":
        arrivals = PoissonArrivals(rate=args.rate, seed=args.seed)
    elif args.arrivals == "diurnal":
        arrivals = DiurnalArrivals(low=args.base, high=args.rate,
                                   period=args.period, seed=args.seed)
    elif args.arrivals == "flash":
        arrivals = FlashCrowdArrivals(
            base=args.base, spike=args.rate, spike_at=args.spike_at,
            hold=args.hold, decay=args.decay, seed=args.seed,
        )
    else:
        print(f"unknown arrival process {args.arrivals!r}", file=sys.stderr)
        return 2

    sim = Simulator(seed=args.seed)
    network = Network(sim, latency=FixedLatency(2.0))
    store = registry.build(
        args.protocol, sim, network, nodes=args.nodes,
        service_time=args.service_time,
        queue_limit=args.queue_limit,
        admission_rate=args.admission_rate,
    )
    ops = YCSBWorkload(args.preset, records=args.records, seed=args.seed)
    driver = OpenLoopDriver(store, arrivals, ops, sessions=args.sessions,
                            timeout=args.timeout, seed=args.seed)
    result = driver.run(args.duration)
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


def cmd_selftest(_args: argparse.Namespace) -> int:
    import pkgutil

    import repro

    count = 0
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        importlib.import_module(info.name)
        count += 1
    print(f"imported {count} modules")

    from repro import Network, Simulator, spawn
    from repro.checkers import check_linearizability
    from repro.replication import DynamoCluster

    sim = Simulator(seed=1)
    net = Network(sim)
    cluster = DynamoCluster(sim, net, nodes=5, n=3, r=2, w=2)
    client = cluster.connect()
    result = {}

    def script():
        yield client.put("k", "ok")
        value, _stamp = yield client.get("k")
        result["value"] = value

    spawn(sim, script())
    sim.run()
    assert result["value"] == "ok"
    assert check_linearizability(cluster.history()).ok
    print("smoke simulation ok (write/read/check on a 5-node quorum store)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("examples", help="list runnable examples")

    run_parser = sub.add_parser("run", help="run one example")
    run_parser.add_argument("example")

    pbs_parser = sub.add_parser("pbs", help="quick PBS grid")
    pbs_parser.add_argument("--n", type=int, default=3)
    pbs_parser.add_argument("--t", type=float, default=0.0)
    pbs_parser.add_argument("--trials", type=int, default=4000)
    pbs_parser.add_argument("--wan", action="store_true")

    spectrum_parser = sub.add_parser(
        "spectrum", help="print the consistency spectrum table"
    )
    spectrum_parser.add_argument("--rounds", type=int, default=15)
    spectrum_parser.add_argument("--seed", type=int, default=1)

    sub.add_parser(
        "protocols", help="list registered store adapters + capabilities"
    )

    trace_parser = sub.add_parser(
        "trace", help="summarize a JSONL trace dumped by repro.sim.Tracer"
    )
    trace_parser.add_argument("path", help="trace file (.jsonl)")
    trace_parser.add_argument(
        "--kind", action="append", default=[],
        help="keep only this event kind (repeatable), e.g. msg_drop",
    )
    trace_parser.add_argument(
        "--type", help="keep only messages of this payload type"
    )
    trace_parser.add_argument("--since", type=float, default=None,
                              help="keep events at/after this sim time (ms)")
    trace_parser.add_argument("--until", type=float, default=None,
                              help="keep events at/before this sim time (ms)")
    trace_parser.add_argument("--limit", type=int, default=40,
                              help="timeline lines to print (0 = all)")
    trace_parser.add_argument("--summary-only", action="store_true",
                              help="skip the timeline, print only summaries")

    bench_parser = sub.add_parser(
        "bench", help="run the seeded macro perf suite (BENCH_CORE.json)"
    )
    bench_parser.add_argument("--quick", action="store_true",
                              help="CI smoke scale (seconds, not minutes)")
    bench_parser.add_argument("--seed", type=int, default=42)
    bench_parser.add_argument(
        "--scenario", action="append", default=[],
        help="run only this scenario (repeatable; default: all)",
    )
    bench_parser.add_argument("--output", metavar="PATH",
                              help="write the BENCH_CORE.json document here")
    bench_parser.add_argument(
        "--compare", metavar="BASELINE",
        help="gate against a baseline BENCH_CORE.json (exit 1 on "
             "regression or behavior-fingerprint change)",
    )
    bench_parser.add_argument(
        "--tolerance", type=float, default=0.30,
        help="allowed fractional events/sec drop for --compare "
             "(default 0.30)",
    )
    bench_parser.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="time each scenario N times and keep the best wall time "
             "(defense against machine noise; default 1)",
    )
    bench_parser.add_argument(
        "--no-verify", action="store_true",
        help="skip the traced verification pass (no trace hashes)",
    )
    bench_parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="fan scenarios across N worker processes (default 1: "
             "serial — use serial for baseline regeneration, parallel "
             "for fast comparative runs)",
    )
    bench_parser.add_argument("--list", action="store_true",
                              help="list scenarios and exit")

    sweep_parser = sub.add_parser(
        "sweep",
        help="run one scenario across many seeds on a process pool",
    )
    sweep_parser.add_argument(
        "--scenario", default="quorum_ycsb",
        help="scenario to sweep (default quorum_ycsb; see bench --list)",
    )
    sweep_parser.add_argument(
        "--seeds", default="1-8", metavar="SPEC",
        help="seed spec: N, N-M, or comma list e.g. 1,2,5-7 "
             "(default 1-8)",
    )
    sweep_parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes (default 1: serial in-process)",
    )
    sweep_parser.add_argument(
        "--quick", action="store_true",
        help="quick per-seed scale (same meaning as bench --quick)",
    )
    sweep_parser.add_argument(
        "--check-determinism", action="store_true",
        help="also run serially and fail unless both runs produce the "
             "identical per-seed (trace_hash, metrics_digest) set",
    )
    sweep_parser.add_argument("--output", metavar="PATH",
                              help="write the sweep report JSON here")

    chaos_parser = sub.add_parser(
        "chaos", help="nemesis conformance suite: fault plan + checkers"
    )
    cache_parser = sub.add_parser(
        "cache", help="cache conformance grid: policy x adapter + checkers"
    )
    for grid_parser in (chaos_parser, cache_parser):    # one engine
        grid_parser.add_argument("--seed", type=int, default=42)
        grid_parser.add_argument(
            "--plan", default="partitions",
            help="fault plan name, or 'random' for a seeded random plan "
                 "(default: partitions; see chaos --list)",
        )
        grid_parser.add_argument(
            "--check-determinism", action="store_true",
            help="run the whole grid twice and fail on any trace "
                 "fingerprint drift",
        )
    chaos_parser.add_argument(
        "--protocol", action="append", default=[],
        help="run only this adapter (repeatable; default: all registered)",
    )
    chaos_parser.add_argument("--nodes", type=int, default=5)
    chaos_parser.add_argument("--clients", type=int, default=3)
    chaos_parser.add_argument("--ops", type=int, default=120,
                              help="workload length per protocol")
    chaos_parser.add_argument(
        "--intensity", type=float, default=0.5,
        help="fault density for --plan random (0..1, default 0.5)",
    )
    chaos_parser.add_argument("--list", action="store_true",
                              help="list built-in fault plans and exit")
    cache_parser.add_argument(
        "--adapter", action="append", default=[],
        help="backing adapter (repeatable; default: all registered)",
    )
    cache_parser.add_argument(
        "--policy", action="append", default=[],
        help="cache policy (repeatable; default: all four; "
             "'uncached' runs the bare adapter baseline)",
    )
    cache_parser.add_argument("--ops", type=int, default=60,
                              help="workload length per cell")

    load_parser = sub.add_parser(
        "load", help="open-loop load generator + hot-key storm demo"
    )
    load_parser.add_argument("--protocol", default="quorum")
    load_parser.add_argument("--nodes", type=int, default=3)
    load_parser.add_argument("--seed", type=int, default=42)
    load_parser.add_argument(
        "--arrivals", default="poisson",
        choices=("poisson", "diurnal", "flash"),
        help="arrival process (default: poisson)",
    )
    load_parser.add_argument("--rate", type=float, default=2000.0,
                             help="peak offered rate, ops/sec")
    load_parser.add_argument("--base", type=float, default=200.0,
                             help="baseline rate for diurnal/flash")
    load_parser.add_argument("--period", type=float, default=60_000.0,
                             help="diurnal cycle length (ms)")
    load_parser.add_argument("--spike-at", type=float, default=500.0,
                             help="flash-crowd spike start (ms)")
    load_parser.add_argument("--hold", type=float, default=2000.0,
                             help="flash-crowd spike hold (ms)")
    load_parser.add_argument("--decay", type=float, default=1000.0,
                             help="flash-crowd decay constant (ms)")
    load_parser.add_argument("--duration", type=float, default=4000.0,
                             help="offered-traffic window (ms)")
    load_parser.add_argument("--sessions", type=int, default=1000)
    load_parser.add_argument("--timeout", type=float, default=250.0,
                             help="per-op client timeout (ms)")
    load_parser.add_argument("--preset", default="B",
                             help="YCSB preset for the op mix (default B)")
    load_parser.add_argument("--records", type=int, default=100,
                             help="keyspace size (small = hotter keys)")
    load_parser.add_argument("--service-time", type=float, default=1.0,
                             help="per-node service time (ms/request)")
    load_parser.add_argument("--queue-limit", type=int, default=None,
                             help="bounded service queue (default: off)")
    load_parser.add_argument("--admission-rate", type=float, default=None,
                             help="token-bucket ops/sec/node (default: off)")
    load_parser.add_argument(
        "--storm", action="store_true",
        help="run the three-leg hot-key storm demo instead",
    )
    load_parser.add_argument(
        "--check-determinism", action="store_true",
        help="with --storm: run twice, fail on fingerprint drift",
    )

    scale_parser = sub.add_parser(
        "scale", help="elastic-scaling demo: ring moves under live load"
    )
    scale_parser.add_argument("--seed", type=int, default=42)
    scale_parser.add_argument("--protocol", default="quorum")
    scale_parser.add_argument("--shards", type=int, default=2,
                              help="starting (and final) shard count")
    scale_parser.add_argument("--peak", type=int, default=4,
                              help="shard count to scale out to")
    scale_parser.add_argument("--rate", type=float, default=600.0,
                              help="offered load, ops/sec")
    scale_parser.add_argument("--duration", type=float, default=3000.0,
                              help="offered-traffic window (ms)")
    scale_parser.add_argument(
        "--check-determinism", action="store_true",
        help="run twice, fail on trace fingerprint drift",
    )

    multiregion_parser = sub.add_parser(
        "multiregion",
        help="multi-region flagship: region loss, failover, RTO/RPO",
    )
    multiregion_parser.add_argument("--seed", type=int, default=42)
    multiregion_parser.add_argument(
        "--protocol", action="append", default=[],
        help="run only this protocol leg (repeatable; default: "
             "timeline, primary_backup, quorum)",
    )
    multiregion_parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke scale: fewer shards and keys",
    )
    multiregion_parser.add_argument(
        "--check-determinism", action="store_true",
        help="run twice, fail on trace fingerprint drift",
    )

    sub.add_parser("selftest", help="import everything + smoke simulation")

    args = parser.parse_args(argv)
    handlers = {
        "examples": cmd_examples,
        "run": cmd_run,
        "pbs": cmd_pbs,
        "protocols": cmd_protocols,
        "spectrum": cmd_spectrum,
        "trace": cmd_trace,
        "bench": cmd_bench,
        "sweep": cmd_sweep,
        "chaos": cmd_chaos,
        "cache": cmd_cache,
        "load": cmd_load,
        "scale": cmd_scale,
        "multiregion": cmd_multiregion,
        "selftest": cmd_selftest,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
