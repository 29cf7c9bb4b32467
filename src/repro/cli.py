"""Command-line interface: run experiments and simulations from a shell.

Subcommands::

    repro-router datasheet   [--slots N] [--connections N]
    repro-router experiment  {e1,f7,a1,a3,a4}
    repro-router simulate    [--width W] [--height H] [--channels N]
                             [--ticks T] [--seed S] [--csv PATH]
                             [--checkpoint-dir D] [--resume-from CKPT]
                             [--check-invariants N]
    repro-router chaos       [--seed S] [--cycles N] [--cuts N] [...]
                             [--checkpoint-dir D] [--resume-from CKPT]
                             [--check-invariants N]
    repro-router trace       OUTPUT.jsonl [--snapshots PATH] [...]
    repro-router metrics     [--json PATH] [--period N] [...]
    repro-router service     [--seed S] [--requests N]
                             [--util-threshold PCT] [--queue-limit N]
                             [--report PATH] [--repeat] [...]
    repro-router campaign    SPEC.json [--workers N] [--resume|--rerun]
                             [--cache DIR] [--retries N] [...]
    repro-router analyze     PROBLEM.json [--json PATH] [--validate]
                             [--fault-plan PLAN.json] [--ticks N]

``datasheet`` prints the Table-4-style chip summary; ``experiment``
regenerates one of the paper's results; ``simulate`` runs a random
admitted workload on a mesh and reports delivery statistics; ``chaos``
runs a seeded fault-injection soak and reports the fault counters
(exit status 1 if an undegraded channel missed a deadline);
``service`` runs the control-plane service layer under a seeded churn
workload and reports its SLOs (exit status 1 if a guaranteed channel
missed a deadline or the run ended still in overload); ``trace``
runs the ``simulate`` workload with packet-lifecycle tracing on and
exports the events as JSON Lines; ``metrics`` runs it with periodic
registry snapshots and prints the final metric values; ``campaign``
fans a sweep spec out over worker processes with result caching (see
``docs/campaigns.md``; exit status 1 when any run was quarantined);
``analyze`` predicts admission verdicts and worst-case latency bounds
for a topology + channel-set problem file without simulating, and with
``--validate`` measures the tightness of every predicted bound against
an adversarially driven simulation (see ``docs/schedulability.md``;
exit status 1 on an infeasible problem or a violated bound); with
``--fault-plan`` it additionally classifies every admitted channel as
guaranteed / degraded-guaranteed / at-risk under that fault schedule,
and ``--validate`` then replays the plan through a real chaos run and
gates observed against predicted degraded bounds (exit status 1 if
any channel is left at risk, 2 for a malformed plan file).

Seeding: every seeded subcommand derives independent RNG substreams
from ``--seed`` via :func:`repro.campaign.derive_seed`, the same
derivation campaign sweeps use — so a CLI run is reproducible from the
command line alone, and a campaign run with the same config produces
the same workload.

Errors are reported on stderr and through the exit status (2 for bad
usage or unreadable inputs), never as tracebacks.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.core import RouterParams, estimate_cost
from repro.reporting import format_kv, format_table


def _cmd_datasheet(args: argparse.Namespace) -> int:
    params = RouterParams(connections=args.connections,
                          tc_packet_slots=args.slots)
    cost = estimate_cost(params)
    print("\n".join(format_kv([
        ("connections", params.connections),
        ("time-constrained packets", params.tc_packet_slots),
        ("clock (sorting key) bits",
         f"{params.clock_bits} ({params.key_bits})"),
        ("comparator tree pipeline", f"{params.pipeline_stages} stages"),
        ("flit input buffer", f"{params.flit_buffer_bytes} bytes"),
        ("transistors", f"{cost.transistors:,}"),
        ("area", f"{cost.area_mm2:.1f} mm^2"),
        ("power @ 50 MHz", f"{cost.power_w:.1f} W"),
    ])))
    return 0


def _experiment_e1() -> int:
    from repro.experiments import wormhole_baseline

    result = wormhole_baseline()
    rows = [[size, 30 + size, latency, latency - size]
            for size, latency in result.latencies.items()]
    print("\n".join(format_table(
        ["bytes", "paper (30+b)", "measured", "overhead"], rows)))
    return 0


def _experiment_f7() -> int:
    from repro.experiments import figure7
    from repro.reporting import line_chart

    result = figure7()
    series = {label: [(float(c), float(v)) for c, v in values]
              for label, values in result.series.items()}
    print("\n".join(line_chart(
        series, width=64, height=16,
        title="Figure 7: cumulative link service",
        x_label="time (clock cycles)")))
    print(f"deadline misses: {result.deadline_misses}")
    return 0


def _experiment_a1() -> int:
    from repro.experiments import horizon_tradeoff

    rows = [[p.horizon, f"{p.mean_latency_ticks:.1f}",
             p.buffers_per_connection] for p in horizon_tradeoff()]
    print("\n".join(format_table(
        ["horizon", "mean latency (ticks)", "buffers/conn"], rows)))
    return 0


def _experiment_a3() -> int:
    from repro.experiments import discipline_comparison

    rows = []
    for name, outcome in discipline_comparison().items():
        rows.append([name, outcome.delivered, outcome.deadline_misses,
                     f"{outcome.mean_latency:.1f}"])
    print("\n".join(format_table(
        ["discipline", "delivered", "misses", "mean latency"], rows)))
    return 0


def _experiment_a4() -> int:
    from repro.experiments import cut_through_sweep

    rows = [[result.hops, f"{result.store_and_forward_cycles:.0f}",
             f"{result.cut_through_cycles:.0f}",
             f"{result.speedup:.2f}x"]
            for result in cut_through_sweep()]
    print("\n".join(format_table(
        ["nodes", "store-and-forward", "cut-through", "speedup"], rows)))
    return 0


_EXPERIMENTS = {
    "e1": _experiment_e1,
    "f7": _experiment_f7,
    "a1": _experiment_a1,
    "a3": _experiment_a3,
    "a4": _experiment_a4,
}


def _cmd_experiment(args: argparse.Namespace) -> int:
    return _EXPERIMENTS[args.name]()


def _open_session(args: argparse.Namespace, cls, *spec):
    """Open the session the checkpoint flags (the fields of one
    ``Execution``) describe; which checkpoint, if any, it starts from
    is :meth:`repro.checkpoint.Session.open`'s rule."""
    from repro.checkpoint import Execution

    session = cls.open(*spec,
                       execution=_config_from_flags(Execution, args))
    if session.network.cycle:  # only a restored session is past cycle 0
        print(f"resumed from checkpoint at cycle {session.network.cycle}")
    return session


def _random_session(args: argparse.Namespace):
    """Build and announce the ``simulate`` workload (``trace``,
    ``metrics``: no checkpoint flags, so no store)."""
    from repro.checkpoint import RandomWorkloadSession

    session = RandomWorkloadSession(args.width, args.height,
                                    args.channels, args.ticks, args.seed)
    print(f"admitted {len(session.admitted)} of {args.channels} channels")
    return session


def _config_from_flags(cls, args: argparse.Namespace, **extra):
    """Build a run-config dataclass from the flags the user gave.

    The config flags carry no parser default (``argparse.SUPPRESS``)
    and use the field name as ``dest``, so a flag left out keeps the
    dataclass's own default and the two cannot drift.
    """
    import dataclasses

    given = {field.name: getattr(args, field.name)
             for field in dataclasses.fields(cls)
             if hasattr(args, field.name)}
    return cls(**given, **extra)


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.checkpoint import RandomWorkloadSession

    session = _open_session(
        args, RandomWorkloadSession, args.width, args.height,
        args.channels, args.ticks, args.seed)
    print(f"admitted {len(session.admitted)} of {args.channels} channels")
    net = session.run()
    for failure in session.invariant_failures:
        print(f"INVARIANT VIOLATION: {failure}")
    tc = net.log.latency_summary("TC")
    be = net.log.latency_summary("BE")
    print("\n".join(format_kv([
        ("time-constrained delivered", tc.count),
        ("deadline misses", net.log.deadline_misses),
        ("TC mean latency (cycles)", f"{tc.mean:.0f}"),
        ("best-effort delivered", be.count),
        ("BE mean latency (cycles)", f"{be.mean:.0f}"),
    ])))
    if args.csv:
        from repro.reporting import write_log_csv
        path = write_log_csv(args.csv, net.log)
        print(f"wrote {path}")
    if session.invariant_failures:
        return 1
    return 0 if net.log.deadline_misses == 0 else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.reporting import write_snapshots_jsonl, write_trace_jsonl

    session = _random_session(args)
    net = session.network
    net.enable_tracing(capacity=args.capacity)
    if args.snapshots:
        net.enable_snapshots(args.period)
    session.run()
    path = write_trace_jsonl(args.output, net.tracer.events())
    dropped = f" ({net.tracer.dropped} dropped)" if net.tracer.dropped else ""
    print(f"wrote {len(net.tracer)} events to {path}{dropped}")
    print("\n".join(format_kv(sorted(net.tracer.counts().items()))))
    if args.snapshots:
        snapshots = net.snapshotter.snapshots
        spath = write_snapshots_jsonl(args.snapshots, snapshots)
        print(f"wrote {len(snapshots)} snapshots to {spath}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    session = _random_session(args)
    net = session.network
    if args.json:
        net.enable_snapshots(args.period)
    session.run()
    print("\n".join(format_kv(net.metrics.rows())))
    if args.json:
        from repro.reporting import write_snapshots_jsonl

        final = dict(net.metrics.snapshot())
        final["cycle"] = net.cycle
        snapshots = [*net.snapshotter.snapshots, final]
        path = write_snapshots_jsonl(args.json, snapshots)
        print(f"wrote {len(snapshots)} snapshots to {path}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.checkpoint import ChaosSession
    from repro.faults import ChaosConfig, run_chaos_soak

    config = _config_from_flags(ChaosConfig, args)
    plan = None
    if args.plan_file:
        from repro.faults.plan import FaultPlan

        # Malformed plan files raise ValueError, which main() turns
        # into a message on stderr and exit status 2.
        plan = FaultPlan.from_file(args.plan_file)
    report = _open_session(args, ChaosSession, config, plan).run()
    print(f"chaos soak: seed {report.seed}, {report.cycles} cycles, "
          f"{report.faults_fired} fault events, "
          f"{report.channels_established} channels")
    print("\n".join(format_kv(report.summary_rows())))
    if report.degraded_labels:
        print(f"degraded channels: {', '.join(report.degraded_labels)}")
    for failure in report.invariant_failures:
        print(f"INVARIANT VIOLATION: {failure}")
    print(f"signature: {report.signature()}")
    if args.repeat:
        again = run_chaos_soak(config, plan)
        if again.signature() != report.signature():
            print("NON-DETERMINISTIC: repeat run diverged")
            return 1
        print("repeat run identical (deterministic)")
    return 0 if report.ok else 1


def _cmd_service(args: argparse.Namespace) -> int:
    from repro.campaign.spec import canonical_dumps
    from repro.service import ServiceRunConfig, ServiceSession, run_service

    fault_plan_json = None
    if args.fault_plan:
        import pathlib

        # A malformed plan raises ValueError when the session validates
        # its config; main() reports it on stderr with exit status 2.
        fault_plan_json = pathlib.Path(args.fault_plan).read_text()
    config = _config_from_flags(ServiceRunConfig, args,
                                fault_plan_json=fault_plan_json)
    report = _open_session(args, ServiceSession, config).run()
    print(f"service run: seed {report.seed}, {report.cycles} cycles, "
          f"{report.requests_total} setup requests")
    print("\n".join(format_kv(report.summary_rows())))
    print(f"signature: {report.signature()}")
    if args.report:
        import pathlib

        path = pathlib.Path(args.report)
        if path.parent != pathlib.Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a") as handle:
            handle.write(canonical_dumps(report.as_dict()) + "\n")
        print(f"wrote {path}")
    if args.repeat:
        again = run_service(config)
        if again.signature() != report.signature():
            print("NON-DETERMINISTIC: repeat run diverged")
            return 1
        print("repeat run identical (deterministic)")
    return 0 if report.ok else 1


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.schedulability import Problem, analyze

    # Malformed files surface as OSError/ValueError, which main()
    # turns into a clear message on stderr and exit status 2.
    problem = Problem.from_file(args.problem)
    report = analyze(problem.topology, problem.channels)
    rows = []
    for verdict in report.channels:
        destinations = " ".join(f"{d[0]},{d[1]}"
                                for d in verdict.destinations)
        rows.append([
            verdict.label,
            f"{verdict.source[0]},{verdict.source[1]}",
            destinations,
            str(verdict.i_min),
            str(verdict.deadline),
            "yes" if verdict.feasible else "NO",
            "-" if verdict.predicted_bound is None
            else str(verdict.predicted_bound),
            "-" if verdict.slack is None else str(verdict.slack),
            verdict.reason or "-",
        ])
    print("\n".join(format_table(
        ["channel", "src", "dst", "i_min", "D", "feasible",
         "bound", "slack", "reason"], rows)))
    print("\n".join(format_kv(report.summary_rows())))
    payload = report.as_dict()
    tightness_ok = True
    fault_ok = True
    plan = None
    if args.fault_plan:
        from repro.faults.plan import FaultPlan
        from repro.schedulability import analyze_problem_with_faults

        # Malformed plan files raise ValueError -> exit status 2.
        plan = FaultPlan.from_file(args.fault_plan)
        fault_report = analyze_problem_with_faults(problem, plan)
        fault_ok = fault_report.ok
        print("")
        print(f"fault plan: {len(plan)} events, "
              f"signature {plan.signature()[:16]}")
        print("\n".join(format_table(
            ["channel", "verdict", "D", "bound", "degraded",
             "retries", "reason"], fault_report.verdict_rows())))
        print("\n".join(format_kv(fault_report.summary_rows())))
        for verdict in fault_report.at_risk:
            print(f"AT RISK: {verdict.label} ({verdict.reason})")
        payload["faults"] = fault_report.as_dict()
    if args.validate:
        from repro.schedulability import measure

        __, tightness = measure(problem.topology, problem.channels, plan,
                                ticks=args.ticks)
        tightness_ok = tightness.ok
        print("")
        print("\n".join(format_table(
            ["channel", "verdict", "predicted", "observed",
             "gap", "deliveries", "misses", "safe"],
            tightness.gap_rows())))
        for mismatch in tightness.mismatches:
            print(f"PREDICTION MISMATCH: {mismatch}")
        for label in tightness.violations:
            print(f"BOUND VIOLATED: {label}")
        key = "tightness" if plan is None else "fault_tightness"
        payload[key] = tightness.as_dict()
    print(f"signature: {report.signature()}")
    if args.json:
        from repro.reporting import write_report_json

        path = write_report_json(args.json, payload)
        print(f"wrote {path}")
    return (0 if report.feasible and tightness_ok and fault_ok
            else 1)


def _cmd_campaign(args: argparse.Namespace) -> int:
    import pathlib

    from repro.campaign import CampaignRunner, CampaignSpec, ResultCache

    spec = CampaignSpec.from_file(args.spec)
    cache_dir = args.cache or str(
        pathlib.Path(args.spec).parent / f"{spec.name}.cache")
    progress = None if args.quiet else print
    runner = CampaignRunner(
        spec, ResultCache(cache_dir),
        workers=args.workers,
        max_attempts=args.retries,
        timeout_seconds=args.timeout,
        backoff_base=args.backoff,
        reuse_cache=args.resume,
        prefilter=args.prefilter,
        progress=progress,
    )
    report = runner.run()
    lines = report.summary_lines()
    lines.append(f"cache: {cache_dir}")
    lines.append(f"signature: {report.signature()}")
    print("\n".join(lines))
    if args.summary:
        path = pathlib.Path(args.summary)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n")
        print(f"wrote {path}")
    return 0 if report.ok else 1


def _cmd_generate_trace(args: argparse.Namespace) -> int:
    from repro.traffic import generate_random_trace

    trace = generate_random_trace(
        args.width, args.height, channels=args.channels,
        ticks=args.ticks, datagram_rate=args.datagram_rate,
        seed=args.seed,
    )
    path = trace.save(args.output)
    print(f"wrote {len(trace.channels)} channels, "
          f"{len(trace.events)} events to {path}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro import build_mesh_network
    from repro.traffic import TrafficTrace, replay_trace

    trace = TrafficTrace.load(args.trace)
    net = build_mesh_network(args.width, args.height)
    log = replay_trace(net, trace)
    print("\n".join(format_kv([
        ("channels", len(trace.channels)),
        ("events replayed", len(trace.events)),
        ("time-constrained delivered", log.tc_delivered),
        ("deadline misses", log.deadline_misses),
        ("best-effort delivered", log.be_delivered),
    ])))
    return 0 if log.deadline_misses == 0 else 1


def _add_mesh_workload_args(parser: argparse.ArgumentParser, *,
                            channels: int) -> None:
    """The seeded random-workload flags four subcommands share."""
    parser.add_argument("--width", type=int, default=4)
    parser.add_argument("--height", type=int, default=4)
    parser.add_argument("--channels", type=int, default=channels)
    parser.add_argument("--ticks", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)


def _add_checkpoint_args(parser: argparse.ArgumentParser) -> None:
    """Checkpoint flags: dest = ``Execution`` field, no parser default."""
    from repro.checkpoint import DEFAULT_CHECKPOINT_INTERVAL

    parser.add_argument("--checkpoint-dir", default=argparse.SUPPRESS,
                        help="write periodic crash-consistent "
                             "checkpoints to this directory")
    parser.add_argument("--checkpoint-interval", type=int, metavar="N",
                        default=argparse.SUPPRESS,
                        help="cycles between checkpoints (default "
                             f"{DEFAULT_CHECKPOINT_INTERVAL})")
    parser.add_argument("--resume-from", metavar="CKPT",
                        default=argparse.SUPPRESS,
                        help="resume from this checkpoint file (the "
                             "run configuration must match the one "
                             "that wrote it)")
    parser.add_argument("--check-invariants", type=int, metavar="N",
                        dest="check_every", default=argparse.SUPPRESS,
                        help="check router structural invariants and "
                             "the kept scheduler queue every N cycles, "
                             "and once after a resume")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-router",
        description="Real-time router reproduction (Rexford/Hall/Shin, "
                    "ISCA 1996)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    datasheet = commands.add_parser(
        "datasheet", help="print the chip's Table-4-style datasheet")
    datasheet.add_argument("--slots", type=int, default=256)
    datasheet.add_argument("--connections", type=int, default=256)
    datasheet.set_defaults(func=_cmd_datasheet)

    experiment = commands.add_parser(
        "experiment", help="regenerate one of the paper's results")
    experiment.add_argument("name", choices=sorted(_EXPERIMENTS))
    experiment.set_defaults(func=_cmd_experiment)

    simulate = commands.add_parser(
        "simulate", help="run a random admitted workload on a mesh")
    _add_mesh_workload_args(simulate, channels=8)
    simulate.add_argument("--csv", default=None)
    _add_checkpoint_args(simulate)
    simulate.set_defaults(func=_cmd_simulate)

    chaos = commands.add_parser(
        "chaos", help="run a seeded fault-injection soak")
    # Config flags: no parser default, dest = ChaosConfig field name
    # (see _config_from_flags).
    for flag in ("seed", "width", "height", "cycles", "cuts", "flaps",
                 "corruptions", "drops", "babblers"):
        chaos.add_argument(f"--{flag}", type=int,
                           default=argparse.SUPPRESS)
    chaos.add_argument("--plan-file", default=None, metavar="PATH",
                       help="replay an explicit fault plan JSON instead "
                            "of deriving one from the seed")
    chaos.add_argument("--repeat", action="store_true",
                       help="run twice and verify identical signatures")
    _add_checkpoint_args(chaos)
    chaos.set_defaults(func=_cmd_chaos)

    service = commands.add_parser(
        "service", help="run the control-plane service layer under a "
                        "seeded churn workload (see docs/service.md)")
    service.add_argument("--workload", default="churn",
                         choices=("churn",),
                         help="request-stream generator (default churn)")
    # Config flags: no parser default, dest = ServiceRunConfig field
    # name (see _config_from_flags).
    for flag, field, metavar, text in (
            ("--seed", "seed", None, None),
            ("--width", "width", None, None),
            ("--height", "height", None, None),
            ("--requests", "requests", None,
             "channel setup requests to generate"),
            ("--arrival-period", "arrival_period_ticks", "TICKS",
             "mean inter-arrival time (default 4)"),
            ("--hold-ticks", "hold_ticks", None,
             "mean channel holding time (default 200)"),
            ("--be-fraction", "be_fraction_pct", "PCT",
             "percent of requests that are best-effort"),
            ("--util-threshold", "util_threshold_pct", "PCT",
             "link-utilisation admission headroom"),
            ("--buffer-watermark", "buffer_watermark_pct", "PCT",
             "buffer-fill admission headroom"),
            ("--queue-limit", "queue_limit", None,
             "setup queue depth bound"),
            ("--queue-timeout", "queue_timeout_ticks", "TICKS",
             "queued-request deadline (default 64)"),
            ("--max-retries", "max_retries", None,
             "admission retries per queued request"),
            ("--retry-backoff", "retry_backoff_ticks", "TICKS",
             "base retry backoff (doubles per attempt)")):
        service.add_argument(flag, dest=field, type=int, metavar=metavar,
                             default=argparse.SUPPRESS, help=text)
    service.add_argument("--analytic-preadmission",
                         action="store_true", default=argparse.SUPPRESS,
                         help="reject load-independent infeasible "
                              "requests immediately via the analytic "
                              "schedulability engine")
    service.add_argument("--fault-plan", default=None, metavar="PATH",
                         help="fault plan JSON the fabric must survive; "
                              "requests the fault model leaves at risk "
                              "under it are rejected at intake")
    service.add_argument("--report", default=None, metavar="PATH",
                         help="append the SLO report to this JSONL file")
    service.add_argument("--repeat", action="store_true",
                         help="run twice and verify identical signatures")
    _add_checkpoint_args(service)
    service.set_defaults(func=_cmd_service)

    campaign = commands.add_parser(
        "campaign", help="run a sharded simulation sweep from a spec "
                         "file (see docs/campaigns.md)")
    campaign.add_argument("spec", help="campaign spec JSON path")
    campaign.add_argument("--workers", type=int, default=1,
                          help="worker processes (default 1)")
    campaign.add_argument("--cache", default=None,
                          help="result cache directory (default: "
                               "<spec dir>/<name>.cache)")
    campaign.add_argument("--resume", dest="resume", action="store_true",
                          default=True,
                          help="reuse cached results and execute only "
                               "the missing runs (default)")
    campaign.add_argument("--rerun", dest="resume", action="store_false",
                          help="ignore cached results and re-execute "
                               "every run")
    campaign.add_argument("--retries", type=int, default=3,
                          help="max attempts per run before quarantine")
    campaign.add_argument("--timeout", type=float, default=None,
                          help="per-run timeout in seconds")
    campaign.add_argument("--backoff", type=float, default=0.5,
                          help="retry backoff base in seconds "
                               "(doubles per attempt)")
    campaign.add_argument("--summary", default=None,
                          help="also write the summary to this text file")
    campaign.add_argument("--no-prefilter", dest="prefilter",
                          action="store_false", default=True,
                          help="execute analytically infeasible cells "
                               "instead of skipping them")
    campaign.add_argument("--quiet", action="store_true",
                          help="suppress per-run progress lines")
    campaign.set_defaults(func=_cmd_campaign)

    analyze = commands.add_parser(
        "analyze", help="predict admission verdicts and worst-case "
                        "bounds for a schedulability problem file "
                        "(see docs/schedulability.md)")
    analyze.add_argument("problem",
                         help="problem JSON path (topology + channels)")
    analyze.add_argument("--json", default=None, metavar="PATH",
                         help="also export the verdict report as JSON")
    analyze.add_argument("--fault-plan", default=None, metavar="PATH",
                         help="also derive fault-aware verdicts under "
                              "this fault plan JSON (exit 1 if any "
                              "channel is at risk)")
    analyze.add_argument("--validate", action="store_true",
                         help="drive the admitted set adversarially in "
                              "simulation and report predicted-vs-"
                              "observed tightness (with --fault-plan: "
                              "a chaos run with the plan injected)")
    analyze.add_argument("--ticks", type=int, default=200,
                         help="driving window for --validate "
                              "(default 200)")
    analyze.set_defaults(func=_cmd_analyze)

    generate = commands.add_parser(
        "generate-trace", help="write a seeded random workload trace")
    generate.add_argument("output")
    _add_mesh_workload_args(generate, channels=4)
    generate.add_argument("--datagram-rate", type=float, default=0.1)
    generate.set_defaults(func=_cmd_generate_trace)

    replay = commands.add_parser(
        "replay", help="replay a workload trace on a fresh mesh")
    replay.add_argument("trace")
    replay.add_argument("--width", type=int, default=4)
    replay.add_argument("--height", type=int, default=4)
    replay.set_defaults(func=_cmd_replay)

    trace_cmd = commands.add_parser(
        "trace", help="run the simulate workload with packet tracing "
                      "and export the events as JSONL")
    trace_cmd.add_argument("output", help="trace JSONL output path")
    _add_mesh_workload_args(trace_cmd, channels=8)
    trace_cmd.add_argument("--capacity", type=int, default=65536,
                           help="trace ring-buffer capacity (events)")
    trace_cmd.add_argument("--snapshots", default=None,
                           help="also write metrics snapshots to this "
                                "JSONL path")
    trace_cmd.add_argument("--period", type=int, default=1000,
                           help="snapshot period in cycles")
    trace_cmd.set_defaults(func=_cmd_trace)

    metrics_cmd = commands.add_parser(
        "metrics", help="run the simulate workload and report the "
                        "metrics registry")
    _add_mesh_workload_args(metrics_cmd, channels=8)
    metrics_cmd.add_argument("--json", default=None,
                             help="write periodic + final snapshots to "
                                  "this JSONL path")
    metrics_cmd.add_argument("--period", type=int, default=1000,
                             help="snapshot period in cycles")
    metrics_cmd.set_defaults(func=_cmd_metrics)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed its usage/error message; turn the
        # exit into a return code so embedding callers (and tests)
        # never see a raised SystemExit or a traceback.
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
