"""Parity: the event-driven plane reproduces the synchronous decisions.

On a fault-free stream (the ``healthy`` scenario) the ingress plane
driven by :class:`~repro.chaos.ChaosRunner` must agree with the cluster
solve path it fronts:

* with a frozen world (SEMB only), every decision serves exactly the
  configuration a direct ``solve_request`` of the same snapshot serves;
* with world mutations, the plane's per-meeting sequence of *distinct*
  solution digests is a subsequence of the snapshot-by-snapshot solve
  trajectory (coalescing may skip intermediate snapshots, never invent
  one), and both end on the same final configuration.
"""

from repro.chaos import ChaosConfig, ChaosRunner
from repro.chaos.report import solution_digest
from repro.chaos.world import ChaosWorld
from repro.cluster import ClusterConfig, ControllerCluster
from repro.core.engine import default_mckp_cache
from repro.core.solver import SolverConfig
from repro.ingress.events import StreamConfig, generate_stream
from repro.ingress.plane import ClusterBackend

CFG = ChaosConfig(seed=11, meetings=3, mean_size=4.0, duration_s=6.0)
FROZEN = ChaosConfig(
    seed=11, meetings=3, mean_size=4.0, duration_s=6.0,
    mutations_per_meeting=0.0,
)


def _healthy_run(cfg: ChaosConfig):
    """A fault-free run, and each meeting's distinct delivered digests
    in order."""
    runner = ChaosRunner(cfg, scenario="healthy")
    report = runner.run()
    digests: dict = {m: [] for m in report.meetings}
    for serve in report.serves:
        seen = digests[serve["meeting"]]
        if not seen or seen[-1] != serve["solution"]:
            seen.append(serve["solution"])
    return runner, digests


def _snapshot_trajectory(cfg: ChaosConfig) -> dict:
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
        runner, digests = _healthy_run(FROZEN)
        trajectory = _snapshot_trajectory(FROZEN)
        assert runner.report.ok
        assert runner.plane.stats.shed == 0
        assert set(digests) == set(trajectory)
        for meeting, expected in trajectory.items():
            # A frozen world has exactly one configuration per meeting;
            # the plane must serve it and nothing else.
            assert len(expected) == 1
            assert digests[meeting] == expected


class TestMutatingWorldParity:
    def test_distinct_digests_are_a_snapshot_subsequence(self):
        runner, digests = _healthy_run(CFG)
        trajectory = _snapshot_trajectory(CFG)
        assert runner.plane.stats.shed == 0, (
            "parity sizing must not shed (sheds serve the fallback, "
            "which is outside the snapshot trajectory)"
        )
        assert runner.plane.stats.decisions > 0
        for meeting, expected in trajectory.items():
            got = digests[meeting]
            assert got, f"{meeting} committed no configuration"
            assert _is_subsequence(got, expected), (
                f"{meeting}: ingress digests {got} are not a "
                f"subsequence of the snapshot trajectory {expected}"
            )
            assert got[-1] == expected[-1], (
                f"{meeting}: final configuration diverged"
            )

    def test_sources_are_solver_sources(self):
        runner, _ = _healthy_run(CFG)
        assert set(runner.report.served_by_source) <= {"solve", "cache"}


class TestChaosParity:
    def test_healthy_scenario_serves_the_direct_solve_digests(self):
        """``run_scenario`` drives the same plane: with no faults and no
        mutations every meeting is delivered exactly the configuration a
        direct ``solve_request`` of its snapshot serves."""
        from repro.chaos import run_scenario

        report = run_scenario("healthy", FROZEN.seed, FROZEN)
        assert report.ok and report.serves
        world = ChaosWorld(
            seed=FROZEN.seed, meetings=FROZEN.meetings,
            mean_size=FROZEN.mean_size,
        )
        default_mckp_cache().clear()
        with ControllerCluster(
            ClusterConfig(
                shards=FROZEN.shards,
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
