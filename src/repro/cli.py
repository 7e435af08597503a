"""Command-line interface: ``repro-air`` (or ``python -m repro``).

Every scheduling subcommand drives the
:class:`~repro.engine.BroadcastEngine` facade — one code path for
plan → schedule → validate → measure, with program caching, optional
parallel sweeps (``--workers``) and a structured JSON run manifest
(``--manifest PATH``) on every engine-backed command.

Subcommands:

* ``plan`` — Theorem-3.1 capacity analysis for an instance.
* ``schedule`` — run any registered scheduler and print the program.
* ``evaluate`` — AvgD of a scheduler at a channel count (analytic +
  Monte-Carlo).
* ``sweep`` — a Figure-5-style channel sweep on a named workload.
* ``profile`` — per-group structural profile of a generated program.
* ``resilience`` — replay a (seeded or saved) fault timeline under
  recovery policies and compare what clients experience.
* ``live`` — replay a (seeded or saved) catalog-mutation timeline
  through the live service runtime: admission control, incremental
  repair vs full re-plans, SLO miss tracking, pull-baseline comparison.
* ``serve`` — run the broadcast control plane: host named live
  services behind the typed :mod:`repro.api` NDJSON protocol, either
  persistently on a UNIX/TCP socket or replaying a scripted session.
* ``experiment`` — run a registered experiment (FIG2 .. EXT11).
* ``experiments`` — list the registry.
* ``schedulers`` — list the scheduler registry (plugin API).

Instances are given either as ``--sizes 3,5,3 --times 2,4,8`` or as a
named paper workload ``--workload uniform``.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Sequence

from repro.analysis.experiments import EXPERIMENTS, run_experiment
from repro.analysis.sweep import default_channel_points, sweep_table
from repro.core.bounds import minimum_channels
from repro.core.errors import ReproError
from repro.core.pages import ProblemInstance, instance_from_counts
from repro.core.validate import validate_program
from repro.engine import default_engine, default_registry
from repro.workload.distributions import DISTRIBUTION_NAMES
from repro.workload.generator import PAPER_DEFAULTS, paper_instance

__all__ = ["main", "build_parser"]


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _add_instance_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sizes",
        type=_parse_int_list,
        help="comma-separated group sizes P_1..P_h (e.g. 3,5,3)",
    )
    parser.add_argument(
        "--times",
        type=_parse_int_list,
        help="comma-separated expected times t_1..t_h (e.g. 2,4,8)",
    )
    parser.add_argument(
        "--workload",
        choices=DISTRIBUTION_NAMES,
        help="use a paper workload (n=1000, h=8, t=4..512) instead",
    )


def _add_manifest_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--manifest",
        metavar="PATH",
        default=None,
        help="write the engine's JSON run manifest to PATH",
    )


def _resolve_instance(args: argparse.Namespace) -> ProblemInstance:
    if args.workload:
        return paper_instance(args.workload)
    if args.sizes and args.times:
        return instance_from_counts(args.sizes, args.times)
    raise ReproError(
        "specify an instance: either --workload NAME or both "
        "--sizes and --times"
    )


def _write_manifest(args: argparse.Namespace) -> None:
    """Dump the last run manifest when ``--manifest PATH`` was given."""
    path = getattr(args, "manifest", None)
    if not path:
        return
    manifest = default_engine().last_manifest
    if manifest is None:
        return
    pathlib.Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(manifest.to_json() + "\n")


def _cmd_plan(args: argparse.Namespace) -> int:
    instance = _resolve_instance(args)
    plan = default_engine().plan(instance, available=args.channels)
    print(instance)
    print(f"channel load       : {plan.load:.4f}")
    print(f"minimum channels   : {plan.required}")
    print(f"available channels : {plan.available}")
    print(f"sufficient         : {'yes' if plan.sufficient else 'no'}")
    print(f"utilisation        : {plan.utilisation:.3f}")
    if plan.sufficient:
        print(f"slack slots / t_h  : {plan.slack_slots}")
        print("recommendation     : SUSC (zero delay)")
    else:
        print("recommendation     : PAMAD (minimum average delay)")
    _write_manifest(args)
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    instance = _resolve_instance(args)
    schedule = default_engine().schedule(
        instance, args.algorithm, channels=args.channels
    )
    program = schedule.program
    report = validate_program(program, instance)
    print(repr(program))
    print(f"validity: {report.summary()}")
    if args.render:
        print(program.render())
    if args.json:
        print(program.to_json())
    _write_manifest(args)
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    instance = _resolve_instance(args)
    evaluation = default_engine().evaluate(
        instance,
        args.algorithm,
        channels=args.channels,
        num_requests=args.requests,
        seed=args.seed,
    )
    schedule, measurement = evaluation.schedule, evaluation.measurement
    low, high = measurement.confidence_interval()
    print(f"algorithm          : {evaluation.algorithm}")
    print(f"channels           : {evaluation.channels}")
    print(f"cycle length       : {schedule.program.cycle_length}")
    print(f"AvgD (analytic)    : {schedule.average_delay:.4f}")
    print(
        f"AvgD (simulated)   : {measurement.average_delay:.4f} "
        f"[{low:.4f}, {high:.4f}] over {measurement.num_requests} requests"
    )
    print(f"mean wait          : {measurement.average_wait:.4f}")
    print(f"deadline misses    : {measurement.miss_ratio:.3%}")
    _write_manifest(args)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    instance = _resolve_instance(args)
    n_min = minimum_channels(instance)
    result = default_engine().sweep(
        instance,
        algorithms=args.algorithms,
        channel_points=default_channel_points(n_min, args.points),
        num_requests=args.requests,
        seed=args.seed,
        workers=args.workers,
    )
    table = sweep_table(
        result.points, title=f"AvgD vs channels (N_min={n_min})"
    )
    cache = result.manifest.cache_run
    table.notes.append(
        f"executor: {result.manifest.executor['mode']} "
        f"(workers={result.manifest.executor['workers']}); "
        f"cache: {cache.hits} hits / {cache.misses} misses"
    )
    print(table.render())
    _write_manifest(args)
    return 0


def _cmd_resilience(args: argparse.Namespace) -> int:
    from repro.analysis.report import Table
    from repro.resilience import FaultPlan, poisson_churn_plan

    instance = _resolve_instance(args)
    channels = args.channels or minimum_channels(instance)
    if args.trace:
        plan = FaultPlan.load(args.trace)
        if plan.num_channels != channels and args.channels:
            raise ReproError(
                f"--channels {args.channels} disagrees with the loaded "
                f"trace ({plan.num_channels} channels); drop --channels "
                "or regenerate the trace"
            )
    else:
        plan = poisson_churn_plan(
            channels,
            horizon=args.horizon,
            seed=args.seed,
            fail_rate=args.fail_rate,
            recover_rate=args.recover_rate,
            loss_rate=args.loss_rate,
        )
    if args.save_trace:
        plan.save(args.save_trace)
    result = default_engine().resilience(
        instance,
        trace=plan,
        policies=args.policies,
        num_listeners=args.listeners,
        seed=args.seed,
    )
    print(
        f"fault plan {plan.fingerprint()}: {plan.num_channels} channels, "
        f"horizon {plan.horizon}, {len(plan.events)} events "
        f"(min alive {plan.min_alive()})"
    )
    table = Table(
        title="recovery policies under churn",
        columns=[
            "policy", "reschedules", "lost page-slots",
            "violations", "excess delay", "shed peak",
        ],
    )
    for outcome in result.outcomes:
        table.add_row(
            outcome.policy,
            outcome.reschedule_count,
            round(outcome.pages_lost_time, 1),
            f"{outcome.violation_fraction:.3%}",
            round(outcome.mean_excess_delay, 3),
            outcome.shed_pages_peak,
        )
    table.notes.append(
        f"{result.outcomes[0].listens} listens over "
        f"{result.outcomes[0].epochs} epochs; seed {args.seed}"
    )
    print(table.render())
    _write_manifest(args)
    return 0


def _cmd_live(args: argparse.Namespace) -> int:
    from repro.analysis.report import Table
    from repro.engine import BroadcastEngine
    from repro.live import MutationTrace
    from repro.workload.mutations import generate_mutation_trace

    instance = _resolve_instance(args)
    if args.trace:
        trace = MutationTrace.load(args.trace)
    else:
        trace = generate_mutation_trace(
            instance,
            seed=args.seed,
            horizon=args.horizon,
            mutations=args.mutations,
            listeners=args.listeners,
        )
    if args.save_trace:
        trace.save(args.save_trace)

    # A private engine per invocation: the live replay contract is that
    # identical inputs produce byte-identical logs and manifests, which
    # requires starting from pristine cache/telemetry/run-id state.
    engine = BroadcastEngine()
    result = engine.live(
        instance,
        trace,
        budget=args.budget,
        admission=not args.no_admission,
        queue_limit=args.queue_limit,
        slo_window=args.slo_window,
        target_miss_rate=args.target_miss_rate,
        replan_cooldown=args.cooldown,
        coalesce_window=args.coalesce_window,
    )
    report = result.report
    pull = result.baseline

    print(
        f"mutation trace {trace.fingerprint()}: horizon {trace.horizon}, "
        f"{len(trace.mutations())} mutations, "
        f"{len(trace.listeners())} listeners"
    )
    print(
        f"budget {report.budget} channels; admission "
        f"{'on' if not args.no_admission else 'off'}; final catalog "
        f"{len(report.catalog)} pages needing {report.final_required} "
        f"channels ({'valid' if report.final_valid else 'degraded'})"
    )
    adm = report.admission
    print(
        f"admission: {adm['admitted']} admitted ({adm['drained']} via "
        f"queue), {adm['queued']} queued, {adm['rejected']} rejected"
    )
    counters = report.counters
    print(
        f"rescheduling: {counters['incremental_repairs']} incremental "
        f"repairs, {counters['full_replans']} full re-plans "
        f"({counters['slo_replans']} SLO-triggered)"
    )
    if args.coalesce_window:
        print(
            f"serving: {counters.get('batched_listeners', 0)} listeners "
            f"replayed in batches, "
            f"{counters.get('events_coalesced', 0)} mutations coalesced "
            f"({counters.get('replans_avoided', 0)} re-plans avoided)"
        )
    table = Table(
        title="deadline SLO: push runtime vs pull baseline (LWF)",
        columns=["system", "listeners", "misses", "miss rate", "mean wait"],
    )
    table.add_row(
        "live push",
        report.slo["listeners"],
        report.slo["misses"],
        f"{report.slo['miss_rate']:.3%}",
        round(report.slo["average_wait"], 3),
    )
    if pull is not None:
        table.add_row(
            "pull LWF",
            pull.listeners,
            pull.misses,
            f"{pull.miss_rate:.3%}",
            round(pull.average_wait, 3),
        )
    print(table.render())

    if args.log:
        path = pathlib.Path(args.log)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            report.event_log_json() + "\n", encoding="utf-8"
        )
    if args.manifest:
        path = pathlib.Path(args.manifest)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            result.manifest.to_json() + "\n", encoding="utf-8"
        )
    return 0


def _cmd_federate(args: argparse.Namespace) -> int:
    from repro.analysis.report import Table
    from repro.engine import BroadcastEngine
    from repro.live import MutationTrace
    from repro.workload.mutations import generate_mutation_trace

    instance = _resolve_instance(args)
    if args.trace:
        trace = MutationTrace.load(args.trace)
    else:
        trace = generate_mutation_trace(
            instance,
            seed=args.seed,
            horizon=args.horizon,
            mutations=args.mutations,
            listeners=args.listeners,
        )
    if args.save_trace:
        trace.save(args.save_trace)

    with BroadcastEngine() as engine:
        result = engine.federate(
            instance,
            trace,
            shards=args.shards,
            budget=args.budget,
            seed=args.seed,
            rebalance_threshold=args.rebalance_threshold,
            max_pages_moved=args.max_moves,
            admission=not args.no_admission,
            queue_limit=args.queue_limit,
            workers=args.workers,
        )
    report = result.report

    print(
        f"mutation trace {trace.fingerprint()}: horizon {trace.horizon}, "
        f"{len(trace.mutations())} mutations, "
        f"{len(trace.listeners())} listeners"
    )
    print(
        f"federation: {report.shards} shard(s), ring "
        f"{report.ring_fingerprint}, per-shard budget {report.budget} "
        f"channel(s), {report.transport} fan-out, final "
        f"{'valid' if report.final_valid else 'degraded'}"
    )
    adm = report.admission
    print(
        f"global admission: {adm['admitted']} admitted "
        f"({adm['spilled']} spilled cross-shard, {adm['drained']} via "
        f"queue), {adm['queued']} queued, {adm['rejected']} rejected"
    )
    print(
        f"rebalancing: {report.pages_moved} page move(s) "
        f"(budget {args.max_moves}); listeners: {report.listeners} "
        f"served, {report.misses} missed "
        f"({report.miss_rate():.3%} miss rate)"
    )
    table = Table(
        title="per-shard replay",
        columns=["shard", "pages", "listeners", "misses", "full replans"],
    )
    for shard_report in report.shard_reports:
        slo = shard_report["slo"]
        table.add_row(
            shard_report["shard"],
            shard_report["final_pages"],
            slo["listeners"],
            slo["misses"],
            shard_report["counters"]["full_replans"],
        )
    print(table.render())

    if args.manifest:
        path = pathlib.Path(args.manifest)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            result.manifest.to_json() + "\n", encoding="utf-8"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import tempfile

    from repro.api import ServiceManifest, decode_line, encode_line
    from repro.control import (
        ControlPlane,
        ControlPlaneServer,
        Journal,
        run_scripted_session,
    )

    if args.recover and not args.journal:
        raise ReproError(
            "--recover needs --journal PATH (the journal to replay)"
        )
    if args.recover:
        # Journal.open happily creates a missing file, which would turn
        # a mistyped path into "recovered 0 request(s)" — refuse instead.
        journal_path = pathlib.Path(args.journal)
        if not journal_path.is_file():
            raise ReproError(
                f"cannot recover: journal {args.journal} does not exist"
            )
        if journal_path.stat().st_size == 0:
            raise ReproError(
                f"cannot recover: journal {args.journal} is empty "
                "(no requests to replay)"
            )
    plane = None
    if args.journal:
        journal = Journal.open(
            pathlib.Path(args.journal), fsync=args.fsync
        )
        if args.recover:
            plane = ControlPlane.recover(journal)
            print(
                f"recovered {journal.stats()['records']} journaled "
                f"request(s) from {args.journal}",
                file=sys.stderr,
            )
        else:
            plane = ControlPlane(journal=journal)

    def _write_manifest(manifests: list) -> None:
        import json as _json

        path = pathlib.Path(args.manifest)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            _json.dumps(
                dict(manifests[-1].manifest), sort_keys=True, indent=2
            )
            + "\n",
            encoding="utf-8",
        )

    if plane is not None and plane.closing:
        # The journal's durable prefix ends in a clean Shutdown: the
        # recovered plane is already closed, so there is no session to
        # resume — only manifests to extract.
        if args.session or args.socket or args.port:
            raise ReproError(
                "the journal records a clean Shutdown; the recovered "
                "plane is closed — use --recover --manifest (without a "
                "transport) to extract its manifests"
            )
        if not args.manifest:
            raise ReproError(
                "the journal records a clean Shutdown; give --manifest "
                "PATH to extract the recovered manifests"
            )
        if not plane.finished_manifests:
            raise ReproError(
                "the recovered journal finished no service; there is "
                "no manifest to write"
            )
        _write_manifest(plane.finished_manifests)
        return 0

    if args.session:
        lines = [
            line
            for line in pathlib.Path(args.session).read_text(
                encoding="utf-8"
            ).splitlines()
            if line.strip()
        ]
        messages = [decode_line(line) for line in lines]
        with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmp:
            responses = run_scripted_session(
                messages,
                pathlib.Path(tmp) / "control.sock",
                plane=plane,
            )
        payload = "".join(encode_line(r) for r in responses)
        if args.out:
            out = pathlib.Path(args.out)
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(payload, encoding="utf-8")
        else:
            sys.stdout.write(payload)
        if args.manifest:
            manifests = [
                r for r in responses if isinstance(r, ServiceManifest)
            ]
            if not manifests and plane is not None:
                # A recovered plane may have finished services during
                # journal replay, before the scripted session began.
                manifests = list(plane.finished_manifests)
            if not manifests:
                raise ReproError(
                    "--manifest given but the session finished no "
                    "service; add a FinishService message to the script"
                )
            _write_manifest(manifests)
        return 0

    server = ControlPlaneServer(plane)
    if args.socket:
        print(f"control plane listening on {args.socket}", file=sys.stderr)
        asyncio.run(server.serve_unix(args.socket))
    elif args.port:
        print(
            f"control plane listening on {args.host}:{args.port}",
            file=sys.stderr,
        )
        asyncio.run(server.serve_tcp(args.host, args.port))
    else:
        raise ReproError(
            "serve needs a transport: --session FILE for a scripted "
            "replay, --socket PATH for a UNIX socket, or --port N "
            "(with optional --host) for TCP"
        )
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.analysis.ascii_plot import line_chart

    overrides = {}
    if args.requests is not None:
        overrides["num_requests"] = args.requests
    tables = run_experiment(args.experiment_id, **overrides)
    for table in tables:
        columns = list(table.columns)
        if columns and columns[0] == "channels":
            x = table.column("channels")
            series = {
                name: [
                    (float(xv), float(yv))
                    for xv, yv in zip(x, table.column(name))
                    if isinstance(yv, (int, float))
                ]
                for name in columns[1:]
            }
            print(
                line_chart(
                    series, title=table.title, log_y=args.log
                )
            )
        else:
            print(table.render())
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.analysis.programstats import profile_program
    from repro.analysis.report import Table

    instance = _resolve_instance(args)
    schedule = default_engine().schedule(
        instance, args.algorithm, channels=args.channels
    )
    channels = schedule.meta.get("num_channels", args.channels)
    profile = profile_program(schedule.program, instance)
    print(
        f"{args.algorithm} on {channels} channels: cycle "
        f"{profile.cycle_length}, occupancy {profile.occupancy:.1%}, "
        f"delay fairness {profile.delay_fairness:.3f}"
    )
    table = Table(
        title="per-group structure",
        columns=[
            "group", "t_i", "pages", "slots", "bandwidth",
            "mean gap", "max gap", "margin",
        ],
    )
    for share in profile.shares:
        table.add_row(
            share.group_index,
            share.expected_time,
            share.pages,
            share.slots,
            round(share.bandwidth_share, 3),
            round(share.mean_gap, 1),
            share.max_gap,
            share.safety_margin,
        )
    print(table.render())
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    overrides = {}
    if args.requests is not None:
        overrides["num_requests"] = args.requests
    if args.seed is not None:
        overrides["seed"] = args.seed
    if getattr(args, "workers", None):
        overrides["workers"] = args.workers
    for table in run_experiment(args.experiment_id, **overrides):
        print(table.render() if not args.markdown else table.to_markdown())
    return 0


def _cmd_experiments(_args: argparse.Namespace) -> int:
    width = max(len(key) for key in EXPERIMENTS)
    for key, experiment in EXPERIMENTS.items():
        print(
            f"{key.ljust(width)}  {experiment.paper_ref.ljust(12)}  "
            f"{experiment.title}"
        )
    return 0


def _cmd_schedulers(_args: argparse.Namespace) -> int:
    registry = default_registry()
    aliases_by_target: dict[str, list[str]] = {}
    for alias, target in registry.aliases().items():
        aliases_by_target.setdefault(target, []).append(alias)
    width = max(len(name) for name in registry.names())
    for name, fn in registry.items():
        aliases = aliases_by_target.get(name, [])
        suffix = f"  (aliases: {', '.join(sorted(aliases))})" if aliases else ""
        print(
            f"{name.ljust(width)}  {fn.__module__}.{fn.__qualname__}{suffix}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests)."""
    registry = default_registry()
    scheduler_names = sorted([*registry.names(), *registry.aliases()])
    parser = argparse.ArgumentParser(
        prog="repro-air",
        description=(
            "Time-constrained broadcast scheduling "
            "(ICDCS 2005 reproduction)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    plan = commands.add_parser(
        "plan", help="Theorem-3.1 capacity analysis"
    )
    _add_instance_arguments(plan)
    plan.add_argument(
        "--channels", type=int, default=1, help="channels available"
    )
    _add_manifest_argument(plan)
    plan.set_defaults(handler=_cmd_plan)

    schedule = commands.add_parser(
        "schedule", help="generate a broadcast program"
    )
    _add_instance_arguments(schedule)
    schedule.add_argument(
        "--algorithm",
        default="susc",
        choices=scheduler_names,
        help="scheduler to run (see 'schedulers')",
    )
    schedule.add_argument(
        "--channels",
        type=int,
        default=None,
        help="channels to use (default: Theorem-3.1 minimum)",
    )
    schedule.add_argument(
        "--render", action="store_true", help="print the program grid"
    )
    schedule.add_argument(
        "--json", action="store_true", help="print the program as JSON"
    )
    _add_manifest_argument(schedule)
    schedule.set_defaults(handler=_cmd_schedule)

    evaluate = commands.add_parser(
        "evaluate", help="measure AvgD of a scheduler"
    )
    _add_instance_arguments(evaluate)
    evaluate.add_argument(
        "--algorithm", default="pamad", choices=scheduler_names
    )
    evaluate.add_argument("--channels", type=int, required=True)
    evaluate.add_argument(
        "--requests", type=int, default=PAPER_DEFAULTS.num_requests
    )
    evaluate.add_argument("--seed", type=int, default=0)
    _add_manifest_argument(evaluate)
    evaluate.set_defaults(handler=_cmd_evaluate)

    sweep = commands.add_parser(
        "sweep", help="Figure-5-style channel sweep"
    )
    _add_instance_arguments(sweep)
    sweep.add_argument(
        "--algorithms",
        type=lambda text: [part.strip() for part in text.split(",")],
        default=["pamad", "m-pb", "opt"],
        help="comma-separated scheduler names",
    )
    sweep.add_argument("--points", type=int, default=12)
    sweep.add_argument(
        "--requests", type=int, default=PAPER_DEFAULTS.num_requests
    )
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument(
        "--workers",
        type=int,
        default=1,
        help="fan sweep cells across N processes (1 = serial)",
    )
    _add_manifest_argument(sweep)
    sweep.set_defaults(handler=_cmd_sweep)

    profile = commands.add_parser(
        "profile", help="structural profile of a generated program"
    )
    _add_instance_arguments(profile)
    profile.add_argument(
        "--algorithm", default="pamad", choices=scheduler_names
    )
    profile.add_argument(
        "--channels",
        type=int,
        default=None,
        help="channels to use (default: Theorem-3.1 minimum)",
    )
    profile.set_defaults(handler=_cmd_profile)

    resilience = commands.add_parser(
        "resilience",
        help="replay a fault timeline under recovery policies",
    )
    _add_instance_arguments(resilience)
    resilience.add_argument(
        "--channels",
        type=int,
        default=None,
        help="pre-fault channel count (default: Theorem-3.1 minimum)",
    )
    resilience.add_argument(
        "--policies",
        type=lambda text: [
            part.strip() for part in text.split(",") if part.strip()
        ] or None,
        default=None,
        help=(
            "comma-separated recovery policies (default: carry_on,"
            "reschedule_full,reschedule_throttled,shed_load)"
        ),
    )
    resilience.add_argument(
        "--horizon", type=int, default=200,
        help="fault-plan horizon in slots (generated plans)",
    )
    resilience.add_argument(
        "--fail-rate", type=float, default=0.01,
        help="per-slot per-channel failure probability",
    )
    resilience.add_argument(
        "--recover-rate", type=float, default=0.1,
        help="per-slot per-channel recovery probability",
    )
    resilience.add_argument(
        "--loss-rate", type=float, default=0.0,
        help="per-slot per-channel lossy-transmission probability",
    )
    resilience.add_argument("--seed", type=int, default=0)
    resilience.add_argument(
        "--listeners", type=int, default=400,
        help="sampled client listens across the horizon",
    )
    resilience.add_argument(
        "--trace", metavar="PATH", default=None,
        help="replay a saved fault-trace JSON instead of generating one",
    )
    resilience.add_argument(
        "--save-trace", metavar="PATH", default=None,
        help="write the fault-trace JSON for later deterministic replay",
    )
    _add_manifest_argument(resilience)
    resilience.set_defaults(handler=_cmd_resilience)

    live = commands.add_parser(
        "live",
        help="replay a catalog-mutation timeline through the live runtime",
    )
    _add_instance_arguments(live)
    live.add_argument(
        "--budget",
        type=int,
        default=None,
        help="channel budget (default: Theorem-3.1 minimum of the "
        "initial catalog)",
    )
    live.add_argument("--seed", type=int, default=0)
    live.add_argument(
        "--horizon", type=int, default=64,
        help="timeline length in slots (generated traces)",
    )
    live.add_argument(
        "--mutations", type=int, default=20,
        help="catalog mutations to draw (generated traces)",
    )
    live.add_argument(
        "--listeners", type=int, default=60,
        help="listener arrivals to draw (generated traces)",
    )
    live.add_argument(
        "--no-admission", action="store_true",
        help="apply every mutation regardless of the channel bound",
    )
    live.add_argument(
        "--queue-limit", type=int, default=16,
        help="admission queue capacity for over-budget inserts",
    )
    live.add_argument(
        "--slo-window", type=int, default=64,
        help="rolling window (listeners) for the miss-rate SLO",
    )
    live.add_argument(
        "--target-miss-rate", type=float, default=0.05,
        help="rolling miss rate that triggers a corrective re-plan",
    )
    live.add_argument(
        "--cooldown", type=int, default=8,
        help="minimum slots between SLO-triggered re-plans",
    )
    live.add_argument(
        "--coalesce-window", type=int, default=0,
        help="fold catalog mutations arriving within this many slots "
        "into net operations before re-planning (0 = apply each "
        "event individually)",
    )
    live.add_argument(
        "--trace", metavar="PATH", default=None,
        help="replay a saved mutation-trace JSON instead of generating",
    )
    live.add_argument(
        "--save-trace", metavar="PATH", default=None,
        help="write the mutation-trace JSON for deterministic replay",
    )
    live.add_argument(
        "--log", metavar="PATH", default=None,
        help="write the structured event log (the determinism artifact)",
    )
    _add_manifest_argument(live)
    live.set_defaults(handler=_cmd_live)

    federate = commands.add_parser(
        "federate",
        help="replay a mutation timeline across N station shards with "
        "global admission and drift rebalancing",
    )
    _add_instance_arguments(federate)
    federate.add_argument(
        "--shards", type=int, default=2,
        help="station shard count (catalog is partitioned on a "
        "deterministic consistent-hash ring)",
    )
    federate.add_argument(
        "--budget",
        type=int,
        default=None,
        help="per-shard channel budget (default: each shard's "
        "Theorem-3.1 minimum for its initial partition)",
    )
    federate.add_argument("--seed", type=int, default=0)
    federate.add_argument(
        "--horizon", type=int, default=64,
        help="timeline length in slots (generated traces)",
    )
    federate.add_argument(
        "--mutations", type=int, default=20,
        help="catalog mutations to draw (generated traces)",
    )
    federate.add_argument(
        "--listeners", type=int, default=60,
        help="listener arrivals to draw (generated traces)",
    )
    federate.add_argument(
        "--rebalance-threshold", type=float, default=0.0,
        help="rebalance when the hottest shard exceeds this multiple "
        "of the mean channel load (0 disables; try 1.5)",
    )
    federate.add_argument(
        "--max-moves", type=int, default=4,
        help="page moves the rebalancer may spend per trigger",
    )
    federate.add_argument(
        "--no-admission", action="store_true",
        help="apply every mutation regardless of the channel bound",
    )
    federate.add_argument(
        "--queue-limit", type=int, default=16,
        help="global admission queue capacity for over-budget inserts",
    )
    federate.add_argument(
        "--workers", type=int, default=None,
        help="process-pool workers for the shard fan-out (default: "
        "engine setting; 1 = serial)",
    )
    federate.add_argument(
        "--trace", metavar="PATH", default=None,
        help="replay a saved mutation-trace JSON instead of generating",
    )
    federate.add_argument(
        "--save-trace", metavar="PATH", default=None,
        help="write the mutation-trace JSON for deterministic replay",
    )
    _add_manifest_argument(federate)
    federate.set_defaults(handler=_cmd_federate)

    serve = commands.add_parser(
        "serve",
        help="run the broadcast control plane (typed NDJSON protocol)",
    )
    serve.add_argument(
        "--session", metavar="PATH", default=None,
        help="replay a scripted NDJSON message file over a real socket "
        "and exit (deterministic; the CI smoke path)",
    )
    serve.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the session's NDJSON responses here (default: "
        "stdout; scripted mode only)",
    )
    serve.add_argument(
        "--manifest", metavar="PATH", default=None,
        help="write the last finished service's v6 manifest as "
        "canonical JSON (scripted mode only)",
    )
    serve.add_argument(
        "--socket", metavar="PATH", default=None,
        help="serve persistently on a UNIX socket until Shutdown",
    )
    serve.add_argument(
        "--journal", metavar="PATH", default=None,
        help="write-ahead journal: append every accepted request here "
        "before dispatch, so the session survives a crash",
    )
    serve.add_argument(
        "--recover", action="store_true",
        help="replay the --journal's durable prefix before serving, "
        "rebuilding the pre-crash session state byte-for-byte",
    )
    serve.add_argument(
        "--fsync", choices=("always", "batch", "never"),
        default="always",
        help="journal durability policy: fsync every append (always), "
        "every Nth (batch), or leave it to the OS (never)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="TCP bind address (with --port)",
    )
    serve.add_argument(
        "--port", type=int, default=None,
        help="serve persistently on TCP until Shutdown",
    )
    serve.set_defaults(handler=_cmd_serve)

    experiment = commands.add_parser(
        "experiment", help="run a registered experiment"
    )
    experiment.add_argument(
        "experiment_id", help="e.g. FIG5D (see 'experiments')"
    )
    experiment.add_argument("--requests", type=int, default=None)
    experiment.add_argument("--seed", type=int, default=None)
    experiment.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for sweep-based experiments",
    )
    experiment.add_argument(
        "--markdown", action="store_true", help="emit Markdown tables"
    )
    experiment.set_defaults(handler=_cmd_experiment)

    listing = commands.add_parser(
        "experiments", help="list registered experiments"
    )
    listing.set_defaults(handler=_cmd_experiments)

    schedulers = commands.add_parser(
        "schedulers", help="list the scheduler registry (plugin API)"
    )
    schedulers.set_defaults(handler=_cmd_schedulers)

    figure = commands.add_parser(
        "figure", help="render an experiment as an ASCII chart"
    )
    figure.add_argument(
        "experiment_id", help="e.g. FIG5D (channel-sweep experiments plot)"
    )
    figure.add_argument("--requests", type=int, default=None)
    figure.add_argument(
        "--log", action="store_true", default=True,
        help="log-scale the y axis (default)",
    )
    figure.add_argument(
        "--linear", dest="log", action="store_false",
        help="linear y axis",
    )
    figure.set_defaults(handler=_cmd_figure)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
