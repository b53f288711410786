"""Regression: successor chains stamp ``parent_cid`` (satellite 1).

Time-trigger refreshes and degraded re-homes mint a *new* correlation id;
before this PR they stood alone in the trace plane.  These tests pin the
instrumented call sites — ``IngressPlane`` time triggers and
``ControllerCluster.migrate_meeting`` — to the lineage contract: the new
chain's root event carries the predecessor's cid, and the assembled tree
hangs under it.
"""

from repro.chaos import faults as F
from repro.chaos import ChaosConfig, ChaosRunner, Fault, FaultSchedule
from repro.cluster import ClusterConfig, ControllerCluster
from repro.obs import events as ek
from repro.obs.events import EventLog, record_events
from repro.obs.tracing import LINK_LINEAGE, assemble_trees

from tests.cluster.conftest import mesh_problem


def make_cluster(**overrides):
    defaults = dict(shards=3)
    defaults.update(overrides)
    return ControllerCluster(ClusterConfig(**defaults))


def refresh_log():
    """A run whose reports drop mid-run, so the idle meeting refreshes
    from its last snapshot once ``max_interval_s`` passes."""
    runner = ChaosRunner(
        ChaosConfig(seed=3, meetings=4, duration_s=20.0),
        FaultSchedule([Fault(4.0, F.DROP_REPORT, factor=12)]),
    )
    runner.run()
    return runner.events


class TestTimeTriggerLineage:
    def test_refresh_tree_hangs_under_predecessor(self):
        traces = assemble_trees(refresh_log().events)
        refreshes = [
            node
            for tree in traces.trees()
            for node in tree.walk()
            if node.parent_cid
            and any(e.kind == ek.TIME_TRIGGER for e in node.events)
        ]
        assert refreshes
        assert {node.link for node in refreshes} == {LINK_LINEAGE}


class TestMigrationLineage:
    def migrated_log(self):
        log = EventLog()
        with record_events(log):
            with make_cluster() as cluster:
                # The cid the plane mints when the report is enqueued.
                cluster.solve_request(
                    "m0", mesh_problem(), 0.0, correlation_id=log.mint("m0")
                )
                source = cluster.meeting("m0").shard
                target = next(
                    s for s in cluster.live_shards if s != source
                )
                cluster.migrate_meeting("m0", target, 1.0, reason="drain")
        return log

    def test_degraded_rehome_links_to_previous_decision(self):
        log = self.migrated_log()
        rehomes = [e for e in log.events if e.kind == ek.MEETING_REHOMED]
        assert len(rehomes) == 1
        assert rehomes[0].cid, "degraded re-home mints a cid"
        assert rehomes[0].attrs.get("parent_cid"), (
            "degraded re-home must link to the chain it degrades"
        )

    def test_rehome_tree_is_a_lineage_child(self):
        traces = assemble_trees(self.migrated_log().events)
        rehomed = [
            node
            for tree in traces.trees()
            for node in tree.walk()
            if any(e.kind == ek.MEETING_REHOMED for e in node.events)
        ]
        assert rehomed and rehomed[0].link == LINK_LINEAGE

    def test_seamless_move_stays_unthreaded(self):
        log = EventLog()
        with record_events(log):
            with make_cluster() as cluster:
                # The cid the plane mints when the report is enqueued.
                cluster.solve_request(
                    "m0", mesh_problem(), 0.0, correlation_id=log.mint("m0")
                )
                source = cluster.meeting("m0").shard
                target = next(
                    s for s in cluster.live_shards if s != source
                )
                cluster.migrate_meeting(
                    "m0", target, 1.0, reason="drain", degrade=False
                )
        rehomes = [e for e in log.events if e.kind == ek.MEETING_REHOMED]
        assert rehomes[0].cid == ""
        assert "parent_cid" not in rehomes[0].attrs


class TestIngressPlaneLineage:
    def test_plane_time_triggers_carry_parents(self):
        log = refresh_log()
        triggers = [e for e in log.events if e.kind == ek.TIME_TRIGGER]
        # Refreshes for meetings that decided before must link back; a
        # refresh before any decision legitimately has no parent.
        linked = [e for e in triggers if e.attrs.get("parent_cid")]
        assert triggers, "idle_refresh workload must synthesize refreshes"
        assert linked, "refreshes after a first decision must link back"
        for e in linked:
            assert e.attrs["parent_cid"].startswith(e.meeting + "#")
