"""Trace trees: stage rules, critical-path exactness, canonical encoding."""

import math

from repro.obs import events as ek
from repro.obs.tracing import (
    ALL_STAGES,
    STAGE_DELIVERY,
    STAGE_MAILBOX_DWELL,
    STAGE_SHED,
    STAGE_SOLVE,
    TraceTree,
)

from .conftest import decision_chain, ev


def tree_of(events, cid="m0#1", meeting="m0"):
    return TraceTree(cid=cid, meeting=meeting, events=list(events))


class TestChain:
    def test_chain_orders_by_time_then_seq(self):
        events = decision_chain()
        tree = tree_of(list(reversed(events)))
        assert [e.kind for e in tree.chain()] == [
            ek.INGRESS_ENQUEUED,
            ek.INGRESS_DEQUEUED,
            ek.SOLVE_SERVED,
            ek.TMMBR_PUSH,
        ]

    def test_chain_truncates_at_first_terminal(self):
        events = decision_chain()
        events.append(ev(0.9, ek.SOLVE_SERVED, cid="m0#1"))
        tree = tree_of(events)
        assert tree.chain()[-1].kind == ek.TMMBR_PUSH
        assert tree.closed_at_s == 0.35

    def test_non_chain_kinds_are_context_only(self):
        events = decision_chain()
        events.append(ev(0.31, ek.SUBSCRIPTION_CHANGE, cid="m0#1"))
        tree = tree_of(events)
        assert len(tree.chain()) == 4
        assert len(tree.events) == 5

    def test_latency_is_root_to_terminal(self):
        tree = tree_of(decision_chain(t0=2.0))
        assert math.isclose(tree.opened_at_s, 2.0)
        assert math.isclose(tree.closed_at_s, 2.35)
        assert math.isclose(tree.latency_s, 0.35)


class TestStageRules:
    def test_enqueue_to_dequeue_is_mailbox_dwell(self):
        tree = tree_of(decision_chain())
        stages = [s.stage for s in tree.critical_path()]
        assert stages == [STAGE_MAILBOX_DWELL, STAGE_SOLVE, STAGE_DELIVERY]

    def test_shed_chain_names_the_shed_stage(self):
        tree = tree_of([
            ev(0.0, ek.INGRESS_ENQUEUED, cid="m0#1"),
            ev(0.4, ek.INGRESS_SHED, cid="m0#1"),
            ev(0.5, ek.TMMBR_PUSH, cid="m0#1"),
        ])
        assert [s.stage for s in tree.critical_path()] == [
            STAGE_SHED, STAGE_DELIVERY,
        ]

    def test_terminal_without_solve_event_is_solve_time(self):
        # Modeled backends emit no explicit solve event: the whole gap
        # from the root to the terminal is service time.
        tree = tree_of([
            ev(0.0, ek.TIME_TRIGGER, cid="m0#1"),
            ev(0.25, ek.TMMBR_PUSH, cid="m0#1"),
        ])
        spans = tree.critical_path()
        assert [s.stage for s in spans] == [STAGE_SOLVE]
        assert math.isclose(spans[0].duration_s, 0.25)

    def test_lost_delivery_still_attributes(self):
        events = decision_chain()[:-1]
        events.append(ev(0.35, ek.TMMBR_LOST, cid="m0#1"))
        tree = tree_of(events)
        assert [s.stage for s in tree.critical_path()][-1] == STAGE_DELIVERY


class TestCriticalPathExactness:
    def test_spans_partition_the_chain(self):
        tree = tree_of(decision_chain())
        spans = tree.critical_path()
        assert len(spans) == 3
        assert spans[0].start_s == tree.opened_at_s
        assert spans[-1].end_s == tree.closed_at_s
        for left, right in zip(spans, spans[1:]):
            assert left.end_s == right.start_s

    def test_durations_sum_to_latency(self):
        tree = tree_of(decision_chain())
        total = sum(s.duration_s for s in tree.critical_path())
        assert abs(total - tree.latency_s) < 1e-9

    def test_stage_durations_aggregates_and_sorts(self):
        tree = tree_of(decision_chain())
        durations = tree.stage_durations()
        assert list(durations) == sorted(durations)
        assert abs(sum(durations.values()) - tree.latency_s) < 1e-9
        assert set(durations) <= set(ALL_STAGES)

    def test_single_event_chain_has_no_spans(self):
        tree = tree_of([ev(0.0, ek.INGRESS_ENQUEUED, cid="m0#1")])
        assert tree.critical_path() == []
        assert tree.latency_s == 0.0


class TestCanonicalEncoding:
    def test_children_sorted_in_to_dict(self):
        tree = tree_of(decision_chain())
        late = tree_of(decision_chain(cid="m0#3", t0=5.0), cid="m0#3")
        early = tree_of(decision_chain(cid="m0#2", t0=1.0), cid="m0#2")
        tree.children = [late, early]
        encoded = tree.to_dict()
        assert [c["cid"] for c in encoded["children"]] == ["m0#2", "m0#3"]

    def test_walk_visits_every_node_once(self):
        tree = tree_of(decision_chain())
        child = tree_of(decision_chain(cid="m0#2", t0=1.0), cid="m0#2")
        grand = tree_of(decision_chain(cid="m0#3", t0=2.0), cid="m0#3")
        child.children = [grand]
        tree.children = [child]
        nodes = tree.walk()
        assert [n.cid for n in nodes] == ["m0#1", "m0#2", "m0#3"]
        assert tree.event_count() == 12
