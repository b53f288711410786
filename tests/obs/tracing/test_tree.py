"""Trace trees: root, canonical encoding, tree walks."""

from repro.obs import events as ek
from repro.obs.tracing import TRACE_SCHEMA, TraceTree, assemble_trees

from .conftest import decision_chain, ev


def tree_of(events, cid="m0#1", meeting="m0"):
    return TraceTree(cid=cid, meeting=meeting, events=list(events))


class TestRoot:
    def test_root_is_the_earliest_event(self):
        events = decision_chain(t0=2.0)
        tree = tree_of(list(reversed(events)))
        assert tree.root is events[0]
        assert tree.opened_at_s == 2.0

    def test_equal_times_break_on_seq(self):
        late = ev(1.0, ek.TMMBR_PUSH, cid="m0#1", seq=7)
        early = ev(1.0, ek.TIME_TRIGGER, cid="m0#1", seq=3)
        assert tree_of([late, early]).root is early


class TestCanonicalEncoding:
    def test_children_sorted_in_to_dict(self):
        tree = tree_of(decision_chain())
        late = tree_of(decision_chain(cid="m0#3", t0=5.0), cid="m0#3")
        early = tree_of(decision_chain(cid="m0#2", t0=1.0), cid="m0#2")
        tree.children = [late, early]
        encoded = tree.to_dict()
        assert [c["cid"] for c in encoded["children"]] == ["m0#2", "m0#3"]

    def test_encoding_carries_events_and_links_only(self):
        # Stages, latency and the close instant are the plane's
        # (``Decision.stages()``); a tree does not attribute them again.
        encoded = tree_of(decision_chain()).to_dict()
        assert set(encoded) == {
            "cid", "meeting", "parent_cid", "link", "complete",
            "opened_at_s", "events", "children",
        }
        assert [e["kind"] for e in encoded["events"]] == [
            ek.INGRESS_ENQUEUED, ek.INGRESS_DEQUEUED,
            ek.SOLVE_SERVED, ek.TMMBR_PUSH,
        ]

    def test_schema_is_v3(self):
        assert TRACE_SCHEMA == "repro.trace/v3"
        assert assemble_trees(decision_chain()).to_dict()["schema"] == (
            TRACE_SCHEMA
        )

    def test_walk_visits_every_node_once(self):
        tree = tree_of(decision_chain())
        child = tree_of(decision_chain(cid="m0#2", t0=1.0), cid="m0#2")
        grand = tree_of(decision_chain(cid="m0#3", t0=2.0), cid="m0#3")
        child.children = [grand]
        tree.children = [child]
        nodes = tree.walk()
        assert [n.cid for n in nodes] == ["m0#1", "m0#2", "m0#3"]
        assert sum(len(n.events) for n in nodes) == 12
