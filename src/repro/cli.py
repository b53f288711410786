"""Command-line interface: ``python -m repro <command>``.

The subcommands cover the library's main entry points:

* ``solve`` — orchestrate a meeting described as ``id:up:down`` client
  specs and print the stream plan (the core algorithm, no simulation);
* ``meeting`` — run a packet-level meeting simulation and print the QoE
  report (optionally comparing two schemes);
* ``rollout`` — run the fleet/deployment simulation for a date range and
  print daily metrics;
* ``chaos`` — deterministic fault injection + invariant checking (see
  ``docs/RESILIENCE.md``): ``chaos run`` drives one seeded event stream
  through the ingress plane under one scenario's faults, ``chaos soak``
  sweeps scenarios x seeds (running each twice and demanding
  byte-identical reports) and exits non-zero on any invariant
  violation, ``chaos scenarios`` lists the registry;
* ``obs`` — the observability surface (see ``docs/OBSERVABILITY.md``):
  run a solve or an example with instrumentation enabled and dump the
  metrics snapshot (``obs solve`` also replays the solve as a KMR
  narration; ``obs example``), list the canonical metric names
  (``obs names``), run a chaos scenario under the full telemetry
  pipeline and print the SLO verdicts + event stats (``obs report``), or
  reconstruct one meeting's correlated causal timeline
  (``obs timeline``).
"""

from __future__ import annotations

import argparse
import datetime as dt
import math
import os
import runpy
import signal
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import obs
from .conference import ClientSpec, MeetingSpec, run_meeting
from .core import (
    Bandwidth,
    GsoSolver,
    Resolution,
    SolverConfig,
    default_mckp_cache,
    make_ladder,
)
from .core.constraints import Problem, Subscription
from .core.explain import explain_solve
from .obs import names as obs_names


def _parse_client(text: str) -> ClientSpec:
    """Parse ``id:uplink_kbps:downlink_kbps[:loss[:jitter_ms]]``."""
    parts = text.split(":")
    if len(parts) < 3:
        raise argparse.ArgumentTypeError(
            f"client spec {text!r} must be id:up:down[:loss[:jitter_ms]]"
        )
    try:
        spec = ClientSpec(
            client_id=parts[0],
            uplink_kbps=float(parts[1]),
            downlink_kbps=float(parts[2]),
            loss_rate=float(parts[3]) if len(parts) > 3 else 0.0,
            jitter_ms=float(parts[4]) if len(parts) > 4 else 0.0,
        )
        if not (math.isfinite(spec.uplink_kbps) and math.isfinite(spec.downlink_kbps)):
            raise ValueError("bandwidths must be finite")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad client spec {text!r}: {exc}")
    return spec


def _solve_inputs(args: argparse.Namespace):
    """The full-mesh ``(problem, config)`` that ``solve``'s arguments name.

    Raises:
        ValueError: a duplicated client id, fewer than two clients, or a
            bad ``--granularity``.
    """
    ladder = make_ladder(levels_per_resolution=args.levels)
    clients = {c.client_id: c for c in args.clients}
    if len(clients) < len(args.clients):
        raise ValueError("duplicate client ids")
    if len(clients) < 2:
        raise ValueError("need at least two clients")
    subscriptions = [
        Subscription(a, b, Resolution.P720)
        for a in clients
        for b in clients
        if a != b
    ]
    problem = Problem(
        feasible_streams={c: ladder for c in clients},
        bandwidth={
            c.client_id: Bandwidth(
                int(c.uplink_kbps), int(c.downlink_kbps)
            )
            for c in clients.values()
        },
        subscriptions=subscriptions,
    )
    return problem, SolverConfig(granularity_kbps=args.granularity)


def _cmd_solve(args: argparse.Namespace) -> int:
    try:
        problem, config = _solve_inputs(args)
    except ValueError as exc:  # e.g. --granularity 0
        print(f"repro solve: {exc}", file=sys.stderr)
        return 2
    solver = GsoSolver(config)
    solution, stats = solver.solve_with_stats(problem)
    solution.validate(problem)
    print(solution.summary())
    print(
        f"({stats.iterations} iteration(s), "
        f"{stats.wall_time_s * 1000:.1f} ms)"
    )
    eng = stats.engine
    cache = default_mckp_cache().snapshot()
    print(
        f"(engine: {eng.step1_solved} step-1 answers, "
        f"{eng.step1_skipped} carried over, "
        f"{eng.deduped} shared, "
        f"{eng.cache_misses} DP table(s) built, "
        f"{eng.cache_hits}/{eng.cache_hits + eng.cache_misses} profile cache "
        f"hits; process cache {cache['entries']}/{cache['capacity']} entries, "
        f"hit rate {cache['hit_rate']:.2f})"
    )
    return 0


def _cmd_meeting(args: argparse.Namespace) -> int:
    for mode in args.modes:
        try:
            spec = MeetingSpec(
                clients=list(args.clients),
                mode=mode,
                duration_s=args.duration,
                warmup_s=args.warmup,
                seed=args.seed,
            )
            report = run_meeting(spec)
        except ValueError as exc:
            print(f"repro meeting: {exc}", file=sys.stderr)
            return 2
        if not report.views:
            print(
                f"repro meeting: no view was measured in {mode} mode "
                f"(--duration {args.duration:g} s, --warmup {args.warmup:g} s); "
                "lengthen the run",
                file=sys.stderr,
            )
            return 2
        print(f"\n=== {mode} ===")
        print(
            f"framerate={report.mean_framerate():.1f}fps  "
            f"video stall={report.mean_video_stall():.1%}  "
            f"quality={report.mean_quality():.1f}  "
            f"voice stall={report.mean_voice_stall():.1%}"
        )
        for view in report.views:
            print(
                f"  {view.subscriber} <- {view.publisher}: "
                f"{view.framerate:.1f}fps  stall={view.stall_rate:.1%}  "
                f"{view.playback.rendered_kbps:.0f}kbps @ {view.top_resolution}"
            )
    return 0


def _cmd_rollout(args: argparse.Namespace) -> int:
    from .deploy import DeploymentSimulation

    try:
        sim = DeploymentSimulation(conferences_per_day=args.conferences)
    except ValueError as exc:
        print(f"repro rollout: {exc}", file=sys.stderr)
        return 2
    day = dt.date.fromisoformat(args.start)
    end = dt.date.fromisoformat(args.end)
    if end < day:
        print("end date precedes start date", file=sys.stderr)
        return 2
    print("date        coverage  video-stall  voice-stall  framerate")
    while day <= end:
        p = sim.run_day(day)
        print(
            f"{p.day}  {p.coverage:8.2f}  {p.video_stall:11.3f}  "
            f"{p.voice_stall:11.3f}  {p.framerate:9.1f}"
        )
        day += dt.timedelta(days=args.stride)
    return 0


# --------------------------------------------------------------------- #
# Chaos commands
# --------------------------------------------------------------------- #


def _chaos_config(args: argparse.Namespace, seed: int) -> "object":
    from .chaos import ChaosConfig

    try:
        return ChaosConfig(
            seed=seed,
            meetings=args.meetings,
            duration_s=args.duration,
            shards=args.shards,
            report_interval_s=args.report_interval,
            mean_size=args.mean_size,
            mutations_per_meeting=args.mutations,
        )
    except ValueError as exc:
        # A usage error: one line and exit 2 (1 means an invariant failed).
        print(f"repro chaos: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _cmd_chaos_run(args: argparse.Namespace) -> int:
    from .chaos import run_scenario

    config = _chaos_config(args, args.seed)
    try:
        report = run_scenario(args.scenario, args.seed, config)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    if args.json:
        print(report.to_json())
    else:
        print(report.summary())
    return 0 if report.ok else 1


def _cmd_chaos_soak(args: argparse.Namespace) -> int:
    from .chaos import soak

    config = _chaos_config(args, args.base_seed)
    try:
        with obs.enabled_registry() as registry:
            result = soak(
                seeds=args.seeds,
                scenarios=args.scenario or None,
                config=config,
                out=args.out,
                base_seed=args.base_seed,
            )
            if args.metrics_out:
                Path(args.metrics_out).write_text(
                    registry.to_prometheus_text()
                )
    except (KeyError, ValueError) as exc:
        print(
            exc.args[0] if exc.args else str(exc), file=sys.stderr
        )
        return 2
    print(result.summary())
    if args.out:
        print(f"wrote {result.runs} report(s) to {args.out}")
    if args.metrics_out:
        print(f"wrote metrics snapshot to {args.metrics_out}")
    return 0 if result.ok else 1


def _cmd_chaos_scenarios(args: argparse.Namespace) -> int:
    from .chaos import list_scenarios

    for scenario in list_scenarios():
        print(f"{scenario.name:<20s} {scenario.description}")
    return 0


def _add_chaos_config_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--meetings", type=int, default=4)
    parser.add_argument(
        "--duration", type=float, default=10.0, help="simulated seconds"
    )
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--report-interval", type=float, default=1.0)
    parser.add_argument("--mean-size", type=float, default=4.0)
    parser.add_argument(
        "--mutations",
        type=float,
        default=2.0,
        help="mean link/subscription/churn events per meeting in the stream",
    )


# --------------------------------------------------------------------- #
# Observability commands
# --------------------------------------------------------------------- #


def _render_obs(
    registry: "obs.MetricsRegistry", args: argparse.Namespace
) -> str:
    """The metrics snapshot in the requested format."""
    return (
        registry.to_json()
        if args.format == "json"
        else registry.to_prometheus_text()
    )


def _dump_obs(text: str, args: argparse.Namespace) -> None:
    """Emit a rendered metrics snapshot per the obs output options."""
    if args.metrics_out:
        Path(args.metrics_out).write_text(text)
        print(f"[obs] wrote metrics snapshot to {args.metrics_out}")
    print(f"\n=== metrics snapshot ({args.format}) ===")
    print(text, end="" if text.endswith("\n") else "\n")


def _cmd_obs_solve(args: argparse.Namespace) -> int:
    with obs.enabled_registry() as registry:
        code = _cmd_solve(args)
        # Read now: the registry reads some counters from their owners,
        # which the replay below would move.
        text = _render_obs(registry, args)
    if code != 0:
        return code
    # Replayed after the fact, outside the registry: the solver is
    # deterministic, so the narration is of the solve just printed.
    print("\n=== kmr narration (replayed) ===")
    print(explain_solve(*_solve_inputs(args)))
    _dump_obs(text, args)
    return 0


def _resolve_example(name: str) -> Optional[Path]:
    """Find an example script by bare name, ``<name>.py``, or path."""
    direct = Path(name)
    if direct.is_file():
        return direct
    repo_root = Path(__file__).resolve().parents[2]
    stem = name[:-3] if name.endswith(".py") else name
    for base in (Path.cwd() / "examples", repo_root / "examples"):
        candidate = base / f"{stem}.py"
        if candidate.is_file():
            return candidate
    return None


def _cmd_obs_example(args: argparse.Namespace) -> int:
    path = _resolve_example(args.example)
    if path is None:
        print(
            f"example {args.example!r} not found (looked in ./examples "
            "and the repo's examples/)",
            file=sys.stderr,
        )
        return 2
    with obs.enabled_registry() as registry:
        # run_name="__main__" fires the example's entry-point guard, so it
        # runs exactly as ``python examples/<name>.py`` would — but with
        # the registry installed around it.
        runpy.run_path(str(path), run_name="__main__")
        text = _render_obs(registry, args)
    _dump_obs(text, args)
    return 0


def _replay(args: argparse.Namespace, prog: str):
    """Replay the seeded chaos run that ``--scenario``, ``--seed`` and the
    sizing flags name, with the full telemetry pipeline enabled.

    Returns the runner (its event log, report, SLO verdicts and the
    plane's decisions), or ``None`` after a one-line ``repro <prog>:``
    error for an unknown scenario or a refused value.
    """
    from .chaos import ChaosRunner, get_scenario

    config = _chaos_config(args, args.seed)
    try:
        scenario = get_scenario(args.scenario)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return None
    try:
        schedule = scenario.build(args.seed, config)
        with obs.enabled_registry():
            runner = ChaosRunner(config, schedule, scenario=scenario.name)
            runner.run()
    except ValueError as exc:
        print(f"repro {prog}: {exc}", file=sys.stderr)
        return None
    return runner


def _cmd_obs_report(args: argparse.Namespace) -> int:
    import json

    runner = _replay(args, "obs")
    if runner is None:
        return 2
    report, log = runner.report, runner.events
    verdicts = [v.to_dict() for v in runner.slo_verdicts]
    slo_ok = all(v["ok"] for v in verdicts)
    if args.json:
        payload = {
            "scenario": report.scenario,
            "seed": report.seed,
            "slo": verdicts,
            "slo_ok": slo_ok,
            "events": {
                "schema": obs.events.EVENTS_SCHEMA,
                "emitted": log.emitted,
                "retained": len(log),
                "dropped": log.dropped,
                "kinds": log.kinds(),
                "digest": report.event_digest,
            },
            "chaos": {
                "ok": report.ok,
                "serves": len(report.serves),
                "faults": len(report.faults),
                "violations": len(report.violations),
                "digest": report.digest(),
            },
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        kinds = "  ".join(f"{k}={n}" for k, n in log.kinds().items())
        print(
            f"{report.summary()}\n\n"
            f"events: emitted={log.emitted} retained={len(log)} "
            f"dropped={log.dropped}\n  {kinds}"
        )
    return 0 if report.ok and slo_ok else 1


def _cmd_obs_timeline(args: argparse.Namespace) -> int:
    import json

    runner = _replay(args, "obs")
    if runner is None:
        return 2
    log = runner.events
    if args.json:
        print(json.dumps(obs.timeline_dict(
            log.events, args.meeting, emitted=log.emitted, dropped=log.dropped
        ), indent=2))
    else:
        title = (
            f"{runner.scenario} seed={args.seed} — "
            f"timeline for {args.meeting}"
        )
        print(obs.format_timeline(
            log.events, args.meeting, title=title, dropped=log.dropped
        ))
    return 0


def _cmd_trace_record(args: argparse.Namespace) -> int:
    from .obs.tracing import assemble_trees

    runner = _replay(args, "trace")
    if runner is None:
        return 2
    path = runner.events.write_jsonl(args.out)
    traces = assemble_trees(runner.events.events)
    print(f"[trace] scenario={args.scenario} seed={args.seed}")
    print(f"[trace] wrote {len(runner.events)} event(s) to {path}")
    print(
        f"[trace] trees: {traces.stats.assembled} assembled "
        f"({traces.stats.orphan_events} ambient)"
    )
    print(f"[trace] trace digest: {traces.digest()}")
    return 0 if runner.report.ok else 1


def _cmd_trace_show(args: argparse.Namespace) -> int:
    from .obs.tracing import format_waterfall

    runner = _replay(args, "trace")
    if runner is None:
        return 2
    title = f"{args.scenario} seed={args.seed}"
    if args.cid:
        return _trace_show_decision(args, runner, title)
    decisions = [
        d for d in runner.plane.decisions
        if args.meeting is None or d.meeting == args.meeting
    ]
    print(f"trace waterfall — {title}")
    print(format_waterfall(decisions, limit=args.limit))
    return 0


def _trace_show_decision(args: argparse.Namespace, runner, title: str) -> int:
    """``trace show --cid``: one decision's waterfall (its row names its
    source), its solution digest, and its KMR iterations replayed from
    the ``Problem`` it solved."""
    from .cluster import SOURCE_CACHE, SOURCE_SOLVE
    from .obs.tracing import waterfall

    decision = next(
        (d for d in runner.plane.decisions if d.cid == args.cid), None
    )
    if decision is None:
        print(
            f"repro trace: no decision with cid {args.cid!r} in {title}",
            file=sys.stderr,
        )
        return 2
    print(f"trace waterfall — {title} cid={decision.cid}")
    print("\n".join(waterfall(decision)))
    print(f"\nsolution digest: {decision.digest}")
    if decision.source not in (SOURCE_SOLVE, SOURCE_CACHE):
        print(
            f"served the Sec. 7 fallback ({decision.source}): "
            "no KMR solve to replay"
        )
        return 0
    print("\n=== kmr narration (replayed) ===")
    print(explain_solve(decision.payload, runner.cluster.config.solver))
    return 0


def _cmd_trace_export(args: argparse.Namespace) -> int:
    from .obs.tracing import write_chrome_trace

    runner = _replay(args, "trace")
    if runner is None:
        return 2
    path = write_chrome_trace(runner.plane.decisions, args.out)
    print(
        f"[trace] wrote Chrome trace for {args.scenario} seed={args.seed} "
        f"to {path} (open at https://ui.perfetto.dev)"
    )
    return 0


def _cmd_trace_profile(args: argparse.Namespace) -> int:
    import json

    from .obs.registry import quantile

    runner = _replay(args, "trace")
    if runner is None:
        return 2
    # Every decision's attributed stages: the stage-budget SLOs' samples.
    table = {}
    for stage, samples in runner.stage_latencies().items():
        durations = sorted(d for (_, d) in samples)
        table[stage] = {
            "count": len(durations),
            "mean_s": round(sum(durations) / len(durations), 9),
            "p50_s": round(quantile(durations, 0.5), 9),
            "p95_s": round(quantile(durations, 0.95), 9),
            "max_s": round(durations[-1], 9),
        }
    if args.json:
        print(json.dumps(table, indent=2, sort_keys=True))
        return 0
    print(f"stage latencies — {args.scenario} seed={args.seed}")
    print(f"{'stage':<16} {'count':>7} {'mean':>10} {'p50':>10} "
          f"{'p95':>10} {'max':>10}")
    for stage, row in table.items():
        print(
            f"{stage:<16} {row['count']:>7} "
            f"{row['mean_s'] * 1e3:>8.2f}ms "
            f"{row['p50_s'] * 1e3:>8.2f}ms "
            f"{row['p95_s'] * 1e3:>8.2f}ms "
            f"{row['max_s'] * 1e3:>8.2f}ms"
        )
    return 0


def _cmd_obs_names(args: argparse.Namespace) -> int:
    print("metric                                              kind       labels")
    print("-" * 78)
    for name, (kind, labels) in sorted(obs_names.ALL_METRICS.items()):
        label_text = ",".join(labels) if labels else "-"
        print(f"{name:<50s}  {kind:<9s}  {label_text}")
    print("\nbuilt-in spans (label values of repro_span_seconds):")
    for span_name in obs_names.ALL_SPANS:
        print(f"  {span_name}")
    return 0


def _add_obs_output_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=["prom", "json"],
        default="prom",
        help="metrics snapshot format (default: Prometheus text)",
    )
    parser.add_argument(
        "--metrics-out", help="also write the metrics snapshot to this file"
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GSO-Simulcast reproduction: solve, simulate, roll out.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser(
        "solve", help="orchestrate a mesh meeting (algorithm only)"
    )
    solve.add_argument(
        "clients",
        nargs="+",
        type=_parse_client,
        help="client specs: id:up_kbps:down_kbps",
    )
    solve.add_argument("--levels", type=int, default=5)
    solve.add_argument("--granularity", type=int, default=10)
    solve.set_defaults(func=_cmd_solve)

    meeting = sub.add_parser(
        "meeting", help="run a packet-level meeting simulation"
    )
    meeting.add_argument(
        "clients",
        nargs="+",
        type=_parse_client,
        help="client specs: id:up:down[:loss[:jitter_ms]]",
    )
    meeting.add_argument(
        "--modes",
        nargs="+",
        default=["gso"],
        choices=["gso", "nongso", "competitor1", "competitor2"],
    )
    meeting.add_argument("--duration", type=float, default=30.0)
    meeting.add_argument("--warmup", type=float, default=10.0)
    meeting.add_argument("--seed", type=int, default=1)
    meeting.set_defaults(func=_cmd_meeting)

    rollout = sub.add_parser(
        "rollout", help="run the fleet/deployment simulation"
    )
    rollout.add_argument("--start", default="2021-10-01")
    rollout.add_argument("--end", default="2022-01-14")
    rollout.add_argument("--stride", type=int, default=7)
    rollout.add_argument("--conferences", type=int, default=100)
    rollout.set_defaults(func=_cmd_rollout)

    chaos = sub.add_parser(
        "chaos",
        help="fault injection + invariant checking (docs/RESILIENCE.md)",
    )
    chaos_sub = chaos.add_subparsers(dest="chaos_command", required=True)

    chaos_run = chaos_sub.add_parser(
        "run", help="run one scenario at one seed and print its report"
    )
    chaos_run.add_argument("--scenario", default="kitchen_sink")
    chaos_run.add_argument("--seed", type=int, default=1)
    chaos_run.add_argument(
        "--json",
        action="store_true",
        help="print the full canonical JSON report instead of the summary",
    )
    _add_chaos_config_args(chaos_run)
    chaos_run.set_defaults(func=_cmd_chaos_run)

    chaos_soak = chaos_sub.add_parser(
        "soak",
        help="sweep scenarios x seeds (each run twice for determinism); "
        "exit 1 on any invariant violation",
    )
    chaos_soak.add_argument("--seeds", type=int, default=20)
    chaos_soak.add_argument("--base-seed", type=int, default=0)
    chaos_soak.add_argument(
        "--scenario",
        action="append",
        help="restrict to this scenario (repeatable; default: all)",
    )
    chaos_soak.add_argument("--out", help="write JSONL verdicts here")
    chaos_soak.add_argument(
        "--metrics-out", help="write the chaos metrics snapshot here"
    )
    _add_chaos_config_args(chaos_soak)
    chaos_soak.set_defaults(func=_cmd_chaos_soak)

    chaos_scenarios = chaos_sub.add_parser(
        "scenarios", help="list the registered chaos scenarios"
    )
    chaos_scenarios.set_defaults(func=_cmd_chaos_scenarios)

    obs_parser = sub.add_parser(
        "obs",
        help="observability: traced solves, instrumented examples, "
        "metric name listing",
    )
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)

    obs_solve = obs_sub.add_parser(
        "solve",
        help="solve a mesh meeting with metrics + KMR tracing enabled",
    )
    obs_solve.add_argument(
        "clients",
        nargs="+",
        type=_parse_client,
        help="client specs: id:up_kbps:down_kbps",
    )
    obs_solve.add_argument("--levels", type=int, default=5)
    obs_solve.add_argument("--granularity", type=int, default=10)
    _add_obs_output_args(obs_solve)
    obs_solve.set_defaults(func=_cmd_obs_solve)

    obs_example = obs_sub.add_parser(
        "example",
        help="run an examples/ script with instrumentation enabled",
    )
    obs_example.add_argument(
        "example",
        help="example name (e.g. global_meeting) or a script path",
    )
    _add_obs_output_args(obs_example)
    obs_example.set_defaults(func=_cmd_obs_example)

    obs_report = obs_sub.add_parser(
        "report",
        help="run a chaos scenario with the telemetry pipeline enabled "
        "and print SLO verdicts + event/time-series stats",
    )
    obs_report.add_argument("--scenario", default="bandwidth_collapse")
    obs_report.add_argument("--seed", type=int, default=1)
    obs_report.add_argument(
        "--json",
        action="store_true",
        help="print the machine-readable report payload",
    )
    _add_chaos_config_args(obs_report)
    obs_report.set_defaults(func=_cmd_obs_report)

    obs_timeline = obs_sub.add_parser(
        "timeline",
        help="reconstruct one meeting's causal event timeline "
        "(SEMB report -> solve -> TMMBR -> subscription change)",
    )
    obs_timeline.add_argument(
        "meeting", help="meeting id (e.g. chaos-0)"
    )
    obs_timeline.add_argument("--scenario", default="bandwidth_collapse")
    obs_timeline.add_argument("--seed", type=int, default=1)
    obs_timeline.add_argument(
        "--json", action="store_true", help="print the timeline as JSON"
    )
    _add_chaos_config_args(obs_timeline)
    obs_timeline.set_defaults(func=_cmd_obs_timeline)

    obs_names_cmd = obs_sub.add_parser(
        "names", help="list every canonical metric and span name"
    )
    obs_names_cmd.set_defaults(func=_cmd_obs_names)

    trace_parser = sub.add_parser(
        "trace",
        help="causal trace plane: record the event log, inspect and "
        "export the plane's decisions (docs/TRACING.md)",
    )
    trace_sub = trace_parser.add_subparsers(
        dest="trace_command", required=True
    )

    trace_record = trace_sub.add_parser(
        "record",
        help="run a chaos scenario and write its event log for tracing",
    )
    trace_record.add_argument("--scenario", default="bandwidth_collapse")
    trace_record.add_argument("--seed", type=int, default=1)
    trace_record.add_argument(
        "--out", default="events.jsonl",
        help="event-log JSONL destination (default: events.jsonl)",
    )
    _add_chaos_config_args(trace_record)
    trace_record.set_defaults(func=_cmd_trace_record)

    trace_show = trace_sub.add_parser(
        "show",
        help="render the plane's decisions as a text waterfall",
    )
    trace_show.add_argument("--scenario", default="bandwidth_collapse")
    trace_show.add_argument("--seed", type=int, default=1)
    trace_show.add_argument(
        "--meeting", help="show only one meeting's decisions"
    )
    trace_show.add_argument(
        "--cid",
        help="show one decision: its waterfall, its source and its KMR "
        "iterations replayed from the Problem it solved",
    )
    trace_show.add_argument(
        "--limit", type=int, default=10,
        help="max decisions to render (default 10; 0 = all)",
    )
    _add_chaos_config_args(trace_show)
    trace_show.set_defaults(func=_cmd_trace_show)

    trace_export = trace_sub.add_parser(
        "export",
        help="export the plane's decisions as Chrome trace-event JSON "
        "(Perfetto)",
    )
    trace_export.add_argument("--scenario", default="bandwidth_collapse")
    trace_export.add_argument("--seed", type=int, default=1)
    trace_export.add_argument(
        "--out", default="trace_chrome.json",
        help="Chrome trace destination (default: trace_chrome.json)",
    )
    _add_chaos_config_args(trace_export)
    trace_export.set_defaults(func=_cmd_trace_export)

    trace_profile = trace_sub.add_parser(
        "profile",
        help="print the per-stage latency table of the plane's decisions",
    )
    trace_profile.add_argument("--scenario", default="bandwidth_collapse")
    trace_profile.add_argument("--seed", type=int, default=1)
    trace_profile.add_argument(
        "--json", action="store_true",
        help="print the per-stage table as JSON",
    )
    _add_chaos_config_args(trace_profile)
    trace_profile.set_defaults(func=_cmd_trace_profile)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (``| head``).  Point stdout at
        # /dev/null so the interpreter's exit flush stays quiet, and exit
        # as a process killed by SIGPIPE would.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 128 + signal.SIGPIPE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
