"""Parity: the event-driven plane reproduces the synchronous decisions.

On a fault-free stream the ingress plane must agree with the cluster
solve path it fronts:

* with a frozen world (SEMB only), every decision serves exactly the
  configuration a direct ``solve_request`` of the same snapshot serves;
* with world mutations, the plane's per-meeting sequence of *distinct*
  solution digests is a subsequence of the snapshot-by-snapshot solve
  trajectory (coalescing may skip intermediate snapshots, never invent
  one), and both end on the same final configuration.
"""

from repro.chaos.report import solution_digest
from repro.chaos.world import ChaosWorld
from repro.cluster import ClusterConfig, ControllerCluster
from repro.core.engine import default_mckp_cache
from repro.core.solver import SolverConfig
from repro.ingress.events import StreamConfig, generate_stream
from repro.ingress.plane import ClusterBackend
from repro.ingress.run import IngressRunConfig, run_ingress

CFG = IngressRunConfig(seed=11, meetings=3, mean_size=4.0, duration_s=6.0)


def _snapshot_trajectory(cfg: IngressRunConfig) -> dict:
    """Distinct solution digests per meeting, solving after every event.

    Replays the identical seeded stream synchronously: apply each event
    to a fresh world (the same offer-time mutation rules the plane's
    backend uses), then serve that snapshot through the same cluster
    solve path the plane calls.
    """
    default_mckp_cache().clear()
    world = ChaosWorld(
        seed=cfg.seed, meetings=cfg.meetings, mean_size=cfg.mean_size
    )
    cluster = ControllerCluster(
        ClusterConfig(
            shards=cfg.shards,
            min_interval_s=cfg.report_interval_s,
            max_interval_s=3.0 * cfg.report_interval_s,
            cache_capacity=cfg.cache_capacity,
            max_solves_per_round=cfg.max_solves_per_round,
            solver=SolverConfig(granularity_kbps=25),
        )
    )
    stream = generate_stream(
        cfg.seed,
        world,
        StreamConfig(
            duration_s=cfg.duration_s,
            report_interval_s=cfg.report_interval_s,
            mutations_per_meeting=cfg.mutations_per_meeting,
        ),
    )
    backend = ClusterBackend(cluster, world)
    trajectory: dict = {m: [] for m in world.meeting_ids}
    for event in stream:
        backend.apply_event(event)
        served = cluster.solve_request(
            event.meeting,
            world.current_problem(event.meeting),
            event.at_s,
            trigger="event",
        )
        digests = trajectory[event.meeting]
        digest = solution_digest(served.solution)
        if not digests or digests[-1] != digest:
            digests.append(digest)
    return trajectory


def _is_subsequence(needle, haystack) -> bool:
    it = iter(haystack)
    return all(any(x == y for y in it) for x in needle)


class TestFrozenWorldParity:
    def test_event_path_equals_sync_path_exactly(self):
        cfg = IngressRunConfig(
            seed=11, meetings=3, mean_size=4.0, duration_s=6.0,
            mutations_per_meeting=0.0,
        )
        report = run_ingress(cfg)
        trajectory = _snapshot_trajectory(cfg)
        assert report.totals["shed"] == 0
        assert set(report.meetings) == set(trajectory)
        for meeting, expected in trajectory.items():
            # A frozen world has exactly one configuration per meeting;
            # the plane must serve it and nothing else.
            assert len(expected) == 1
            assert report.meetings[meeting]["digests"] == expected


class TestMutatingWorldParity:
    def test_distinct_digests_are_a_snapshot_subsequence(self):
        report = run_ingress(CFG)
        trajectory = _snapshot_trajectory(CFG)
        assert report.totals["shed"] == 0, (
            "parity sizing must not shed (sheds serve the fallback, "
            "which is outside the snapshot trajectory)"
        )
        assert report.totals["decisions"] > 0
        for meeting, expected in trajectory.items():
            got = report.meetings[meeting]["digests"]
            assert got, f"{meeting} committed no configuration"
            assert _is_subsequence(got, expected), (
                f"{meeting}: ingress digests {got} are not a "
                f"subsequence of the snapshot trajectory {expected}"
            )
            assert got[-1] == expected[-1], (
                f"{meeting}: final configuration diverged"
            )

    def test_sources_are_solver_sources(self):
        report = run_ingress(CFG)
        assert set(report.decisions_by_source) <= {"solve", "cache"}


class TestChaosParity:
    def test_healthy_scenario_serves_the_direct_solve_digests(self):
        """The chaos runner drives the same plane: with no faults every
        meeting is delivered exactly the configuration a direct
        ``solve_request`` of its snapshot serves."""
        from repro.chaos import ChaosConfig, run_scenario

        cfg = ChaosConfig(seed=11, meetings=3, duration_s=6.0)
        report = run_scenario("healthy", 11, cfg)
        assert report.ok and report.serves
        world = ChaosWorld(
            seed=cfg.seed, meetings=cfg.meetings, mean_size=cfg.mean_size
        )
        default_mckp_cache().clear()
        with ControllerCluster(
            ClusterConfig(
                shards=cfg.shards,
                cache_capacity=cfg.cache_capacity,
                solver=SolverConfig(granularity_kbps=25),
            )
        ) as cluster:
            for meeting in world.meeting_ids:
                direct = cluster.solve_request(
                    meeting, world.current_problem(meeting), 0.0
                )
                delivered = {
                    s["solution"]
                    for s in report.serves
                    if s["meeting"] == meeting and s["delivered"]
                }
                assert delivered == {solution_digest(direct.solution)}
