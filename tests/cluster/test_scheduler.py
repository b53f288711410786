"""The Fig. 12 envelope: the pacing function, and what it does to one
meeting on the real loop (``IngressPlane`` -> ``ClusterBackend`` ->
``ControllerCluster``): debounce floor, coalescing, time-trigger ceiling.

The plane's own mechanics are unit-tested against a fake backend in
``tests/ingress/test_plane.py``; here the envelope comes from
``ClusterConfig`` and the decisions from the real solve service.
"""

import pickle

import pytest

from repro.chaos.world import ChaosWorld
from repro.cluster import (
    ClusterConfig,
    ControllerCluster,
    TRIGGER_EVENT,
    TRIGGER_TIME,
    backpressure_window_s,
)
from repro.core.solver import GsoSolver, SolverConfig
from repro.ingress.aio import SimRuntime
from repro.ingress.events import LinkEstimate, SembReport
from repro.ingress.plane import PACING_FLOOR_S, ClusterBackend, IngressPlane

MEETING = "chaos-0"
#: Virtual service time of a small meeting's solve (the floor applies).
SERVICE_S = PACING_FLOOR_S
DIRECT = GsoSolver(SolverConfig(granularity_kbps=25))


def loop(min_interval_s=1.0, max_interval_s=3.0):
    world = ChaosWorld(seed=1, meetings=1)
    cluster = ControllerCluster(
        ClusterConfig(
            shards=1,
            min_interval_s=min_interval_s,
            max_interval_s=max_interval_s,
        )
    )
    plane = IngressPlane(SimRuntime(), ClusterBackend(cluster, world))
    return plane, world


def reports(*times):
    return [SembReport(t, MEETING, seq=i) for i, t in enumerate(times)]


class TestBackpressureWindow:
    def test_shallow_mailbox_debounces_at_the_floor(self):
        assert backpressure_window_s(0, 8, 1.0, 3.0) == 1.0
        assert backpressure_window_s(1, 8, 1.0, 3.0) == 1.0

    def test_window_widens_linearly_to_the_ceiling(self):
        windows = [backpressure_window_s(d, 5, 1.0, 3.0) for d in range(1, 6)]
        assert windows == [1.0, 1.5, 2.0, 2.5, 3.0]

    def test_overfull_mailbox_stays_at_the_ceiling(self):
        assert backpressure_window_s(50, 5, 1.0, 3.0) == 3.0

    def test_capacity_one_cannot_widen(self):
        assert backpressure_window_s(4, 1, 1.0, 3.0) == 1.0


class TestSubmit:
    """Reports submitted to the loop are debounced and coalesced."""

    def test_debounce_floor_after_a_solve(self):
        plane, _ = loop(min_interval_s=1.0)
        # The second report lands 0.2 s after the first decision.
        plane.run_stream(reports(0.0, 1.2), duration_s=2.0)
        first, second = plane.decisions
        assert first.decided_at_s == pytest.approx(1.0 + SERVICE_S)
        assert second.decided_at_s - first.decided_at_s >= 1.0
        assert second.decided_at_s == pytest.approx(2.2 + SERVICE_S)

    def test_coalescing_newest_snapshot_wins(self):
        plane, world = loop()
        client = min(world.meeting(MEETING).clients)
        plane.run_stream(
            [
                LinkEstimate(0.0, MEETING, client=client, down_scale=0.5),
                LinkEstimate(0.3, MEETING, seq=1, client=client,
                             down_scale=0.2),
            ],
            duration_s=1.0,
        )
        (decision,) = plane.decisions  # two mutations, one solve
        assert decision.batch == 2
        newest = world.current_problem(MEETING)
        assert decision.payload is newest
        assert pickle.dumps(decision.solution) == pickle.dumps(
            DIRECT.solve(newest)
        )

    def test_coalescing_keeps_queue_position(self):
        plane, _ = loop(min_interval_s=1.0)
        plane.run_stream(reports(0.1, 0.9), duration_s=1.0)
        (decision,) = plane.decisions
        # The window is anchored at the first report, not the newest.
        assert decision.opened_at_s == 0.1
        assert decision.decided_at_s == pytest.approx(1.1 + SERVICE_S)

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(min_interval_s=0.0)
        with pytest.raises(ValueError):
            ClusterConfig(min_interval_s=3.0, max_interval_s=1.0)


class TestDue:
    """When decisions come due."""

    def test_time_trigger_after_max_interval(self):
        plane, world = loop(min_interval_s=1.0, max_interval_s=3.0)
        plane.run_stream(reports(0.0), duration_s=5.0)
        first, refresh = plane.decisions
        assert first.trigger == TRIGGER_EVENT
        assert refresh.trigger == TRIGGER_TIME
        assert refresh.opened_at_s == pytest.approx(first.decided_at_s + 3.0)
        assert refresh.payload is world.current_problem(MEETING)
        assert plane.stats.idle_refreshes == 1

    def test_no_time_trigger_while_pending(self):
        plane, _ = loop(min_interval_s=1.0, max_interval_s=3.0)
        plane.run_stream(reports(*[0.5 + k for k in range(6)]), duration_s=6.0)
        assert plane.decisions
        assert {d.trigger for d in plane.decisions} == {TRIGGER_EVENT}
        assert plane.stats.idle_refreshes == 0

    def test_due_popped_once(self):
        plane, _ = loop()
        plane.run_stream(reports(0.0, 0.4, 1.3, 2.9, 3.0), duration_s=4.0)
        # Every report is folded into exactly one decision.
        assert sum(d.batch for d in plane.decisions) == 5
        assert plane.stats.enqueued == 5
        assert all(d.batch >= 1 for d in plane.decisions)
