"""What a rebuilt meeting allocates, and what the cyclic collector finds.

The controller re-decides a meeting on every significant bandwidth
report, and the world hands it a freshly built ``Problem`` each time.
``Subscription`` and ``Bandwidth`` are shared by value and everything
derived from the edge list alone is shared by every picture over it, so
the rebuilt picture of a webinar allocates what changed, not one object
per edge and not one index list per client; and nothing on the decision path makes a reference cycle, so every
collection the interpreter runs there is overhead.  Both are counts, not
timings: they repeat exactly.
"""

import gc

from repro.chaos.world import ChaosWorld
from repro.cluster import ClusterConfig, ControllerCluster
from repro.core.constraints import Bandwidth, Problem, Subscription
from repro.core.ladder import paper_ladder
from repro.core.solver import SolverConfig
from repro.core.types import Resolution
from repro.ingress.aio import SimRuntime
from repro.ingress.events import StreamConfig, generate_stream
from repro.ingress.faults import StreamFaultInjector
from repro.ingress.plane import ClusterBackend, IngressPlane

PUBLISHERS = [f"P{k}" for k in range(8)]
VIEWERS = [f"V{k:03d}" for k in range(110)]
LADDER = paper_ladder()


def webinar_picture(downlinks):
    """A 118-client, 936-edge webinar built in full, as a world that keeps
    client state and not edges builds it after every event."""
    clients = PUBLISHERS + VIEWERS
    return Problem(
        feasible_streams={p: LADDER for p in PUBLISHERS},
        bandwidth={
            c: Bandwidth(
                uplink_kbps=900 + 10 * k,
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
        # The picture before was decided: fingerprinted and shape-indexed.
        old.fingerprint(25)
        old.shape_index()
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            new = webinar_picture({"V042": 400})
            new.fingerprint(25)
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
        assert new.fingerprint(25) != old.fingerprint(25)

    def test_an_equal_rebuild_is_a_new_problem_of_old_parts(self):
        old = webinar_picture({})
        new = webinar_picture({})
        assert new is not old
        assert new.subscriptions is not old.subscriptions
        assert new.fingerprint(25) == old.fingerprint(25)
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
