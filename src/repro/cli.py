"""Command-line interface: ``python -m repro <command>``.

Four subcommands cover the library's main entry points:

* ``solve`` — orchestrate a meeting described as ``id:up:down`` client
  specs and print the stream plan (the core algorithm, no simulation);
* ``meeting`` — run a packet-level meeting simulation and print the QoE
  report (optionally comparing two schemes);
* ``rollout`` — run the fleet/deployment simulation for a date range and
  print daily metrics;
* ``cluster`` — the sharded controller cluster (``docs/ARCHITECTURE.md``,
  "Controller cluster"): ``cluster run`` pushes a fleet workload through
  the cluster's solve service (sharding + fingerprint cache) and
  reports daily metrics plus cluster counters (the event-driven loop
  itself is ``ingress run``);
* ``place`` — fleet placement (see ``docs/PLACEMENT.md``): ``place
  stats`` drives real meetings through a placed cluster (optionally
  rebalancing hot shards) and dumps the load-model snapshot;
* ``chaos`` — deterministic fault injection + invariant checking (see
  ``docs/RESILIENCE.md``): ``chaos run`` replays one scenario at one
  seed, ``chaos soak`` sweeps scenarios x seeds (running each twice and
  demanding byte-identical reports) and exits non-zero on any invariant
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
import json
import math
import runpy
import sys
from pathlib import Path
from typing import List, Optional, Sequence

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
        ValueError: fewer than two clients, or a bad ``--granularity``.
    """
    ladder = make_ladder(levels_per_resolution=args.levels)
    clients = {c.client_id: c for c in args.clients}
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
# Cluster commands
# --------------------------------------------------------------------- #


def _make_cluster(args: argparse.Namespace) -> "object":
    from .cluster import ClusterConfig, ControllerCluster

    try:
        config = ClusterConfig(
            shards=args.shards,
            cache_capacity=args.cache_capacity,
            max_solves_per_round=args.max_solves_per_round,
        )
    except ValueError as exc:
        raise SystemExit(f"repro cluster: {exc}")
    return ControllerCluster(config)


def _print_cluster_stats(cluster: "object") -> None:
    import json

    print("\n=== cluster stats ===")
    print(json.dumps(cluster.stats(), indent=2))


def _cmd_cluster_run(args: argparse.Namespace) -> int:
    from .deploy import DeploymentSimulation

    day = dt.date.fromisoformat(args.start)
    end = dt.date.fromisoformat(args.end)
    if end < day:
        print("end date precedes start date", file=sys.stderr)
        return 2
    cluster = _make_cluster(args)
    sim = DeploymentSimulation(
        conferences_per_day=args.conferences, cluster=cluster
    )
    print("date        coverage  video-stall  voice-stall  framerate")
    while day <= end:
        p = sim.run_day(day)
        print(
            f"{p.day}  {p.coverage:8.2f}  {p.video_stall:11.3f}  "
            f"{p.voice_stall:11.3f}  {p.framerate:9.1f}"
        )
        day += dt.timedelta(days=args.stride)
    _print_cluster_stats(cluster)
    return 0


def _add_cluster_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument(
        "--cache-capacity",
        type=int,
        default=4096,
        help="fingerprint-cache entries (0 disables caching)",
    )
    parser.add_argument(
        "--max-solves-per-round",
        type=int,
        default=64,
        help="solves one shard may have in flight; the rest shed to fallback",
    )


# --------------------------------------------------------------------- #
# Placement commands
# --------------------------------------------------------------------- #


def _cmd_place_stats(args: argparse.Namespace) -> int:
    """Drive real meetings through a placed cluster; dump placement stats."""
    import json
    import random as _random

    from .cluster import ClusterConfig, ControllerCluster
    from .deploy.fleet import ConferenceScorer, FleetSampler
    from .deploy.rollout import DeploymentSimulation
    from .placement.migration import HotShardDetector

    try:
        config = ClusterConfig(
            shards=args.shards,
            placement=args.policy,
            shard_cost_budget=args.budget,
        )
    except ValueError as exc:
        print(f"repro place: {exc}", file=sys.stderr)
        return 2
    cluster = ControllerCluster(config)
    sim = DeploymentSimulation()
    sampler = FleetSampler(_random.Random(args.seed))
    scorer = ConferenceScorer()
    for i in range(args.meetings):
        rng = sim._conference_rng(dt.date(2021, 12, 25), i)
        conf = sampler.sample_conference(rng=rng)
        cluster.solve_request(f"meeting-{i}", scorer._gso_problem(conf), 0.0)
    print(f"registered and served {args.meetings} meeting(s)")
    if args.budget > 0:
        detector = HotShardDetector(args.budget)
        result = detector.rebalance(cluster, 1.0)
        hot = ", ".join(result.hot_after) if result.hot_after else "none"
        print(
            f"rebalance: {len(result.moves)} move(s), "
            f"hot shards after: {hot}"
        )
    print(json.dumps(cluster.stats()["placement"], indent=2, sort_keys=True))
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
        )
    except ValueError as exc:
        raise SystemExit(f"repro chaos: {exc}")


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


# --------------------------------------------------------------------- #
# Ingress commands (the event-driven control plane)
# --------------------------------------------------------------------- #


def _ingress_config(args: argparse.Namespace) -> "object":
    from .ingress import IngressRunConfig

    try:
        return IngressRunConfig(
            seed=args.seed,
            meetings=args.meetings,
            mean_size=args.mean_size,
            duration_s=args.duration,
            report_interval_s=args.report_interval,
            mutations_per_meeting=args.mutations,
            shards=args.shards,
            mailbox_capacity=args.mailbox_capacity,
            solve_slots=args.solve_slots,
        )
    except ValueError as exc:
        raise SystemExit(f"repro ingress: {exc}")


def _parse_stream_fault(spec: str) -> "object":
    """``drop:MEETING:START:END`` or ``delay:MEETING:START:END:DELAY``.

    An empty or ``*`` meeting field targets every meeting.
    """
    from .ingress import DELAY_SEMB, DROP_SEMB, StreamFault

    parts = spec.split(":")
    try:
        kind = parts[0]
        meeting = "" if parts[1] in ("", "*") else parts[1]
        if kind == "drop" and len(parts) == 4:
            return StreamFault(
                DROP_SEMB,
                meeting=meeting,
                start_s=float(parts[2]),
                end_s=float(parts[3]),
            )
        if kind == "delay" and len(parts) == 5:
            return StreamFault(
                DELAY_SEMB,
                meeting=meeting,
                start_s=float(parts[2]),
                end_s=float(parts[3]),
                delay_s=float(parts[4]),
            )
    except (IndexError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"bad fault spec {spec!r}: {exc}")
    raise argparse.ArgumentTypeError(
        f"bad fault spec {spec!r}; want drop:MEETING:START:END or "
        "delay:MEETING:START:END:DELAY"
    )


def _run_ingress_cli(args: argparse.Namespace):
    from .ingress import run_ingress

    config = _ingress_config(args)
    try:
        return run_ingress(config, faults=args.fault)
    except ValueError as exc:
        raise SystemExit(f"repro ingress: {exc}")


def _cmd_ingress_run(args: argparse.Namespace) -> int:
    report = _run_ingress_cli(args)
    if args.json:
        print(report.to_json())
    else:
        print(report.summary())
    return 0 if report.ok else 1


def _cmd_ingress_stats(args: argparse.Namespace) -> int:
    report = _run_ingress_cli(args)
    payload = {
        "seed": report.seed,
        "totals": dict(sorted(report.totals.items())),
        "decisions_by_source": report.decisions_by_source,
        "latency": report.latency,
        "meetings": report.meetings,
        "event_digest": report.event_digest,
        "report_digest": report.digest(),
        "ok": report.ok,
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        totals = payload["totals"]
        print(
            f"ingress stats: seed={report.seed} "
            f"events={totals.get('offered', 0)} "
            f"decisions={totals.get('decisions', 0)} "
            f"{report.decisions_by_source}"
        )
        print(
            f"  coalesced={totals.get('coalesced', 0)} "
            f"shed={totals.get('shed', 0)} "
            f"dropped={totals.get('dropped', 0)} "
            f"delayed={totals.get('delayed', 0)} "
            f"idle_refreshes={totals.get('idle_refreshes', 0)}"
        )
        print(
            f"  latency p50={report.latency.get('p50_s', 0.0):.3f}s "
            f"p95={report.latency.get('p95_s', 0.0):.3f}s "
            f"max={report.latency.get('max_s', 0.0):.3f}s"
        )
        for meeting, row in sorted(report.meetings.items()):
            box = row.get("mailbox", {})
            print(
                f"  {meeting}: decisions={row.get('decisions', 0)} "
                f"enqueued={box.get('enqueued', 0)} "
                f"evicted={box.get('evicted', 0)} "
                f"max_depth={box.get('max_depth', 0)}"
            )
        print(f"  event digest {report.event_digest[:16]}…")
    return 0 if report.ok else 1


def _add_ingress_config_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--meetings", type=int, default=4)
    parser.add_argument(
        "--duration", type=float, default=10.0, help="virtual seconds"
    )
    parser.add_argument("--report-interval", type=float, default=1.0)
    parser.add_argument(
        "--mutations",
        type=float,
        default=2.0,
        help="mean membership/link mutations per meeting over the run",
    )
    parser.add_argument("--mean-size", type=float, default=5.0)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--mailbox-capacity", type=int, default=8)
    parser.add_argument("--solve-slots", type=int, default=4)
    parser.add_argument(
        "--fault",
        action="append",
        type=_parse_stream_fault,
        default=[],
        metavar="SPEC",
        help="stream fault window: drop:MEETING:START:END or "
        "delay:MEETING:START:END:DELAY ('' or * meeting = all; repeatable)",
    )


# --------------------------------------------------------------------- #
# Observability commands
# --------------------------------------------------------------------- #


def _dump_obs(
    registry: "obs.MetricsRegistry", args: argparse.Namespace
) -> None:
    """Emit the metrics snapshot per the obs output options."""
    text = (
        registry.to_json()
        if args.format == "json"
        else registry.to_prometheus_text()
    )
    if args.metrics_out:
        Path(args.metrics_out).write_text(text)
        print(f"[obs] wrote metrics snapshot to {args.metrics_out}")
    print(f"\n=== metrics snapshot ({args.format}) ===")
    print(text, end="" if text.endswith("\n") else "\n")


def _cmd_obs_solve(args: argparse.Namespace) -> int:
    with obs.enabled_registry() as registry:
        code = _cmd_solve(args)
    if code != 0:
        return code
    # Replayed after the fact, outside the registry: the solver is
    # deterministic, so the narration is of the solve just printed.
    print("\n=== kmr narration (replayed) ===")
    print(explain_solve(*_solve_inputs(args)))
    _dump_obs(registry, args)
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
    _dump_obs(registry, args)
    return 0


def _run_obs_scenario(args: argparse.Namespace):
    """Run one chaos scenario with the full telemetry pipeline enabled.

    Returns ``(runner, report)`` — the runner keeps the event log, the
    SLO verdict objects and the plane's decisions.  Raises
    :class:`KeyError` for unknown scenario names.
    """
    from .chaos import ChaosConfig, ChaosRunner, get_scenario

    config = _chaos_config(args, args.seed)
    scenario = get_scenario(args.scenario)
    if scenario.config_overrides:
        # Scenario-pinned config (placement policy, shard budget, sizing)
        # wins over the generic CLI sizing flags, matching run_scenario.
        config = ChaosConfig(
            **{**config.to_dict(), **scenario.config_overrides}
        )
    schedule = scenario.build(args.seed, config)
    runner = ChaosRunner(config, schedule, scenario=scenario.name)
    with obs.enabled_registry():
        report = runner.run()
    return runner, report


def _cmd_obs_report(args: argparse.Namespace) -> int:
    import json

    try:
        runner, report = _run_obs_scenario(args)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"repro obs: {exc}", file=sys.stderr)
        return 2
    if args.events_out:
        path = runner.events.write_jsonl(args.events_out)
        print(
            f"[obs] wrote {len(runner.events)} event(s) to {path}",
            file=sys.stderr,
        )
    if args.json:
        payload = obs.report_dict(
            runner.scenario,
            args.seed,
            runner.slo_verdicts,
            log=runner.events,
            extra={
                "chaos": {
                    "ok": report.ok,
                    "serves": len(report.serves),
                    "faults": len(report.faults),
                    "violations": len(report.violations),
                    "digest": report.digest(),
                },
            },
        )
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(
            obs.format_report(
                runner.scenario,
                args.seed,
                runner.slo_verdicts,
                log=runner.events,
                summary=report.summary(),
            )
        )
    return 0 if report.ok and all(v.ok for v in runner.slo_verdicts) else 1


def _cmd_obs_timeline(args: argparse.Namespace) -> int:
    import json

    if args.events:
        try:
            log = obs.EventLog.read_jsonl(args.events)
        except (OSError, ValueError) as exc:
            print(f"repro obs: cannot read {args.events}: {exc}",
                  file=sys.stderr)
            return 2
        events = log.events
        title = f"{args.events} — timeline for {args.meeting}"
    else:
        try:
            runner, _ = _run_obs_scenario(args)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        except ValueError as exc:
            print(f"repro obs: {exc}", file=sys.stderr)
            return 2
        events = runner.events.events
        title = (
            f"{runner.scenario} seed={args.seed} — "
            f"timeline for {args.meeting}"
        )
    if args.json:
        print(json.dumps(obs.timeline_dict(events, args.meeting), indent=2))
    else:
        print(obs.format_timeline(events, args.meeting, title=title))
    return 0


def _trace_events(args: argparse.Namespace):
    """Events for the trace commands: a JSONL file (``--events``) or a
    fresh scenario run.  Returns ``(events, title)``."""
    if getattr(args, "events", None):
        log = obs.EventLog.read_jsonl(args.events)
        return log.events, str(args.events)
    runner, _ = _run_obs_scenario(args)
    return runner.events.events, f"{args.scenario} seed={args.seed}"


def _cmd_trace_record(args: argparse.Namespace) -> int:
    from .obs.tracing import assemble_trees

    try:
        runner, report = _run_obs_scenario(args)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"repro trace: {exc}", file=sys.stderr)
        return 2
    path = runner.events.write_jsonl(args.out)
    traces = assemble_trees(runner.events.events)
    counters = traces.counters()
    print(f"[trace] scenario={args.scenario} seed={args.seed}")
    print(f"[trace] wrote {len(runner.events)} event(s) to {path}")
    print(
        f"[trace] trees: {counters['assembled']} assembled "
        f"({counters['evicted']} evicted, "
        f"{counters['orphan_events']} ambient)"
    )
    print(f"[trace] trace digest: {traces.digest()}")
    print(f"[trace] report trace digest: {report.trace_digest}")
    return 0 if report.ok else 1


def _cmd_trace_show(args: argparse.Namespace) -> int:
    from .obs.tracing import assemble_trees, format_waterfall

    if args.cid:
        return _trace_show_decision(args)
    try:
        events, title = _trace_events(args)
    except (OSError, ValueError) as exc:
        print(f"repro trace: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    traces = assemble_trees(events)
    trees = traces.trees(args.meeting) if args.meeting else traces.trees()
    print(f"trace waterfall — {title}")
    print(format_waterfall(trees, limit=args.limit))
    return 0


def _trace_show_decision(args: argparse.Namespace) -> int:
    """``trace show --cid``: one decision's waterfall, its source, and
    its KMR iterations replayed from the ``Problem`` it solved."""
    from .cluster import SOURCE_CACHE, SOURCE_SOLVE
    from .obs.tracing import assemble_trees, waterfall

    if args.events:
        print(
            "repro trace: --cid replays the decision's Problem, which an "
            "--events log does not hold; name --scenario and --seed",
            file=sys.stderr,
        )
        return 2
    try:
        runner, _ = _run_obs_scenario(args)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"repro trace: {exc}", file=sys.stderr)
        return 2
    title = f"{args.scenario} seed={args.seed}"
    decision = next(
        (d for d in runner.plane.decisions if d.cid == args.cid), None
    )
    if decision is None:
        print(
            f"repro trace: no decision with cid {args.cid!r} in {title}",
            file=sys.stderr,
        )
        return 2
    events = runner.events.events
    # Retain every tree: the one asked for must not be a reservoir victim.
    trees = assemble_trees(events, retention=len(events)).trees()
    node = next(
        n for tree in trees for n in tree.walk() if n.cid == decision.cid
    )
    print(f"trace waterfall — {title} cid={decision.cid}")
    print("\n".join(waterfall(node)))
    print(
        f"\nsource: {decision.source}  trigger: {decision.trigger}  "
        f"batch: {decision.batch}  digest: {decision.digest}"
    )
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
    from .obs.tracing import assemble_trees, write_chrome_trace

    try:
        events, title = _trace_events(args)
    except (OSError, ValueError) as exc:
        print(f"repro trace: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    traces = assemble_trees(events)
    path = write_chrome_trace(traces.trees(), args.out)
    print(
        f"[trace] wrote Chrome trace for {title} to {path} "
        "(open at https://ui.perfetto.dev)"
    )
    return 0


def _cmd_trace_profile(args: argparse.Namespace) -> int:
    import json

    from .obs.slo import quantile
    from .obs.tracing import assemble_trees

    try:
        events, title = _trace_events(args)
    except (OSError, ValueError) as exc:
        print(f"repro trace: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    # The same samples, and the same p95, the stage-budget SLOs judge.
    table = {}
    for stage, samples in assemble_trees(events).stage_latencies().items():
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
    print(f"stage latencies — {title}")
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

    cluster = sub.add_parser(
        "cluster", help="run workloads on the sharded controller cluster"
    )
    cluster_sub = cluster.add_subparsers(dest="cluster_command", required=True)

    cluster_run = cluster_sub.add_parser(
        "run",
        help="run the fleet simulation through the cluster solve service",
    )
    cluster_run.add_argument("--start", default="2021-12-20")
    cluster_run.add_argument("--end", default="2021-12-27")
    cluster_run.add_argument("--stride", type=int, default=1)
    cluster_run.add_argument("--conferences", type=int, default=100)
    _add_cluster_args(cluster_run)
    cluster_run.set_defaults(func=_cmd_cluster_run)

    place = sub.add_parser(
        "place",
        help="fleet placement: inspect policies on a live cluster "
        "(docs/PLACEMENT.md)",
    )
    place_sub = place.add_subparsers(dest="place_command", required=True)

    place_stats = place_sub.add_parser(
        "stats",
        help="drive real meetings through a placed cluster and dump "
        "the load-model snapshot",
    )
    place_stats.add_argument(
        "--policy",
        default="best_fit",
        choices=["hash", "best_fit", "least_loaded"],
    )
    place_stats.add_argument("--seed", type=int, default=7)
    place_stats.add_argument("--meetings", type=int, default=12)
    place_stats.add_argument("--shards", type=int, default=4)
    place_stats.add_argument(
        "--budget",
        type=float,
        default=0.0,
        help="per-shard cost budget (0 disables the hot-shard detector)",
    )
    place_stats.set_defaults(func=_cmd_place_stats)

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

    ingress = sub.add_parser(
        "ingress",
        help="event-driven ingress: the continuous SEMB/TMMBR control "
        "plane (docs/INGRESS.md)",
    )
    ingress_sub = ingress.add_subparsers(
        dest="ingress_command", required=True
    )

    ingress_run = ingress_sub.add_parser(
        "run",
        help="drive a seeded event stream through the plane and print "
        "its canonical report; exit 1 on invariant violations",
    )
    _add_ingress_config_args(ingress_run)
    ingress_run.add_argument(
        "--json",
        action="store_true",
        help="print the full canonical JSON report instead of the summary",
    )
    ingress_run.set_defaults(func=_cmd_ingress_run)

    ingress_stats = ingress_sub.add_parser(
        "stats",
        help="run a seeded stream and print mailbox/backpressure/latency "
        "accounting",
    )
    _add_ingress_config_args(ingress_stats)
    ingress_stats.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    ingress_stats.set_defaults(func=_cmd_ingress_stats)

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
    obs_report.add_argument(
        "--events-out", help="write the run's event log (JSONL) here"
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
        "--events",
        help="load an event-log JSONL file instead of running a scenario",
    )
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
        help="causal trace plane: record, inspect and export "
        "per-decision trace trees (docs/TRACING.md)",
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
        help="render per-decision trace trees as a text waterfall",
    )
    trace_show.add_argument(
        "--events",
        help="load an event-log JSONL file instead of running a scenario",
    )
    trace_show.add_argument("--scenario", default="bandwidth_collapse")
    trace_show.add_argument("--seed", type=int, default=1)
    trace_show.add_argument(
        "--meeting", help="show only one meeting's decisions"
    )
    trace_show.add_argument(
        "--cid",
        help="show one decision: its waterfall, its source and its KMR "
        "iterations replayed from the Problem it solved (needs --scenario)",
    )
    trace_show.add_argument(
        "--limit", type=int, default=10,
        help="max trees to render (default 10; 0 = all)",
    )
    _add_chaos_config_args(trace_show)
    trace_show.set_defaults(func=_cmd_trace_show)

    trace_export = trace_sub.add_parser(
        "export",
        help="export trace trees as Chrome trace-event JSON (Perfetto)",
    )
    trace_export.add_argument(
        "--events",
        help="load an event-log JSONL file instead of running a scenario",
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
        help="print the per-stage latency table of the trace trees",
    )
    trace_profile.add_argument(
        "--events",
        help="load an event-log JSONL file instead of running a scenario",
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
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
