"""What a rebuilt meeting allocates, and what the cyclic collector finds.

The controller re-decides a meeting on every significant bandwidth
report, and the world hands it a freshly built ``Problem`` each time.
``Subscription`` and ``Bandwidth`` are shared by value and everything
derived from the edge list alone is shared by every picture over it, so
the rebuilt picture of a webinar allocates what changed, not one object
per edge and not one index list per client; and nothing on the decision path makes a reference cycle, so every
collection the interpreter runs there is overhead.  A hosted meeting also
keeps the run of its last solve (``KmrRun``) for the next one to replay:
what that costs is bounded by the meeting, not by how long it has been
re-decided, and it goes with the meeting's record.  The frozen
``Solution`` it keeps holds one read-only map per distinct assignment,
not one per subscriber.  All of these are counts, not timings: they
repeat exactly.
"""

import gc
import types
import weakref

from repro.chaos.world import ChaosWorld
from repro.cluster import ClusterConfig, ControllerCluster
from repro.core.constraints import Bandwidth, Problem, Subscription
from repro.core.ladder import paper_ladder
from repro.core.solver import GsoSolver, KmrRun, SolverConfig
from repro.core.types import Resolution
from repro.ingress.aio import SimRuntime
from repro.ingress.events import StreamConfig, generate_stream
from repro.ingress.faults import StreamFaultInjector
from repro.ingress.plane import ClusterBackend, IngressPlane

PUBLISHERS = [f"P{k}" for k in range(8)]
VIEWERS = [f"V{k:03d}" for k in range(110)]
LADDER = paper_ladder()


def webinar_picture(downlinks, uplinks=()):
    """A 118-client, 936-edge webinar built in full, as a world that keeps
    client state and not edges builds it after every event."""
    clients = PUBLISHERS + VIEWERS
    uplinks = dict(uplinks)
    return Problem(
        feasible_streams={p: LADDER for p in PUBLISHERS},
        bandwidth={
            c: Bandwidth(
                uplink_kbps=uplinks.get(c, 900 + 10 * k),
                downlink_kbps=downlinks.get(c, 1500 + 7 * k),
                audio_protection_kbps=64,
            )
            for k, c in enumerate(clients)
        },
        subscriptions=[
            Subscription(a, b, Resolution.P720)
            for a in clients
            for b in PUBLISHERS
            if a != b
        ],
    )


class TestRebuiltPicture:
    def test_one_report_allocates_what_changed(self):
        old = webinar_picture({})
        assert len(old.bandwidth) == 118 and len(old.subscriptions) == 936
        # The picture before was decided: shape-indexed.
        old.shape_index()
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            new = webinar_picture({"V042": 400})
            new.shape_index()
            added = len(gc.get_objects()) - before
        finally:
            gc.enable()
        # 15: the Problem, its two tracked dicts, eight ladder lists, the
        # edge list, and one Bandwidth with its table key and weak
        # reference.  It was 263 with the picture's own 118 + 8 index
        # lists, Step-1 tuples and shape index, and 1,194 with one new
        # object per edge and per client on top.
        assert added <= 20
        assert new._topology is old._topology
        assert all(a is b for a, b in zip(new.subscriptions, old.subscriptions))
        changed = {
            c for c in old.bandwidth if new.bandwidth[c] is not old.bandwidth[c]
        }
        assert changed == {"V042"}
        assert new.bandwidth["V042"].downlink_kbps == 400
        assert new.changed_bandwidths(old) == {"V042"}

    def test_an_equal_rebuild_is_a_new_problem_of_old_parts(self):
        old = webinar_picture({})
        new = webinar_picture({})
        assert new is not old
        assert new.subscriptions is not old.subscriptions
        assert new.changed_bandwidths(old) == set()
        assert all(a is b for a, b in zip(new.subscriptions, old.subscriptions))


def _plane_and_stream(seed):
    world = ChaosWorld(seed=seed, meetings=4, mean_size=5.0)
    cluster = ControllerCluster(
        ClusterConfig(shards=2, solver=SolverConfig(granularity_kbps=25))
    )
    for meeting_id in world.meeting_ids:
        cluster.register(meeting_id)
    plane = IngressPlane(SimRuntime(), ClusterBackend(cluster, world))
    stream = generate_stream(
        seed, world, StreamConfig(duration_s=6.0, mutations_per_meeting=3.0)
    )
    return plane, stream


class TestDecisionPathMakesNoCycles:
    def test_a_replay_leaves_the_collector_nothing(self):
        # With reference counting alone freeing everything the path drops,
        # each collection during a replay is pure overhead; what it costs
        # is then a matter of how many tracked objects the path keeps.
        warm, stream = _plane_and_stream(seed=3)
        warm.run_stream(stream, StreamFaultInjector(()), duration_s=6.0)
        plane, stream = _plane_and_stream(seed=3)
        gc.collect()
        gc.disable()
        try:
            plane.run_stream(stream, StreamFaultInjector(()), duration_s=6.0)
            assert {d.source for d in plane.decisions} >= {"solve", "cache"}
            # The plane and its runtime are still held: only garbage counts.
            assert gc.collect() == 0
        finally:
            gc.enable()


#: Three uplinks too tight for what the richer half of the viewers ask:
#: eleven KMR iterations, so a run with eleven recorded steps.
TIGHT_UPLINKS = {"P0": 400, "P1": 520, "P2": 700}
RICH_VIEWERS = {f"V{k:03d}": 3000 + 40 * k for k in range(0, 110, 2)}


def tight_webinar(report, movers):
    """The 118-client webinar with one viewer's downlink moved by the
    ``report``-th report; the reports go round ``movers`` viewers."""
    downlinks = dict(RICH_VIEWERS)
    downlinks[VIEWERS[(7 * (report % movers)) % 110]] = 400 + 53 * report
    return webinar_picture(downlinks, TIGHT_UPLINKS)


def _hosted(reports, movers=5):
    """A cluster that decided one webinar ``reports`` times, every one a
    real solve (every picture is a new object, so none is a memo hit)."""
    cluster = ControllerCluster(
        ClusterConfig(shards=2, solver=SolverConfig(granularity_kbps=25))
    )
    for report in range(reports):
        served = cluster.solve_request(
            "w00", tight_webinar(report, movers), now_s=float(report)
        )
        assert served.source == "solve"
    assert served.solution.iterations == 11
    return cluster


def _tracked_by_the_run_alone(record):
    """GC-tracked objects that go when the record's run goes."""
    gc.collect()
    before = len(gc.get_objects())
    record.run = KmrRun()
    return before - len(gc.get_objects())


def _reachable(root):
    """The GC-tracked objects reachable from ``root``, by id; classes and
    modules are not followed."""
    seen = {}
    stack = [root]
    while stack:
        obj = stack.pop()
        if (
            id(obj) in seen
            or isinstance(obj, (type, types.ModuleType))
            or not gc.is_tracked(obj)
        ):
            continue
        seen[id(obj)] = obj
        stack.extend(gc.get_referents(obj))
    return seen


class TestFrozenSolution:
    def test_a_frozen_webinar_solution_owns_what_its_assignments_share(self):
        # The controller keeps a meeting's last frozen Solution; what it
        # owns beyond its picture is the policies and one read-only map
        # per distinct assignment, not one per subscriber.
        problem = tight_webinar(3, 5)
        solution = GsoSolver(SolverConfig(granularity_kbps=25)).solve(problem)
        solution.freeze()
        assert solution.iterations == 11 and len(solution.assignments) == 118
        owned = set(_reachable(solution)) - set(_reachable(problem))
        # 94: the Solution, its two maps of maps with their views, 14
        # policy entries with their audiences, the reductions, and 17
        # assignment maps with their views.  It was 296 with one inner
        # dict and one view per subscriber.
        assert len(owned) <= 150
        maps = {id(p): p for p in solution.assignments.values()}
        assert len(maps) < 30
        equal = {}
        for sub, assigned in solution.assignments.items():
            assert equal.setdefault(tuple(assigned.items()), assigned) is assigned


class TestMeetingRun:
    def test_fifty_replayed_reports_leave_the_collector_nothing(self):
        _hosted(3)  # imports, the profile cache
        gc.collect()
        gc.disable()
        try:
            cluster = _hosted(50)
            assert len(cluster.meeting("w00").run.steps) == 11
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_what_a_run_keeps_is_bounded_by_the_meeting_not_by_its_reports(self):
        gc.disable()
        try:
            kept = {
                reports: _tracked_by_the_run_alone(_hosted(reports).meeting("w00"))
                for reports in (3, 10, 50)
            }
        finally:
            gc.enable()
        # 622: eleven steps, each an answers dict, a policy map with its
        # per-publisher dicts, entries and audiences, and an outcome.  A
        # re-solved viewer gets a template of its own where it shared
        # one, so the count moves by a few with *who* ever moved (here
        # five viewers, in turn), never with how often.
        assert kept[3] <= 640
        assert abs(kept[10] - kept[3]) <= 8
        assert abs(kept[50] - kept[3]) <= 8

    def test_a_meeting_solved_once_keeps_no_steps(self):
        record = _hosted(1).meeting("w00")
        assert record.run.problem is record.last_problem
        assert record.run.steps == ()

    def test_a_meeting_whose_every_solve_changes_topology_keeps_no_steps(self):
        world = ChaosWorld(seed=3, meetings=1, mean_size=5.0)
        (meeting_id,) = world.meeting_ids
        cluster = ControllerCluster(
            ClusterConfig(shards=2, solver=SolverConfig(granularity_kbps=25))
        )
        for k in range(5):
            world.toggle_preference(meeting_id, min(world.meeting(meeting_id).clients))
            served = cluster.solve_request(
                meeting_id, world.current_problem(meeting_id), now_s=float(k)
            )
            assert served.source == "solve"
            assert cluster.meeting(meeting_id).run.steps == ()

    def test_dropping_the_record_frees_the_run(self):
        cluster = _hosted(3)
        run = weakref.ref(cluster.meeting("w00").run)
        steps = weakref.ref(run().steps[0].outcome)
        assert run() is not None and steps() is not None
        del cluster._meetings["w00"]
        assert run() is None and steps() is None
