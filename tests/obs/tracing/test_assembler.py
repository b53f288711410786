"""Trace assembly: linking rules and the ledger."""

import random

from repro.obs import events as ek
from repro.obs import names as obs_names
from repro.obs.registry import enabled_registry
from repro.obs.tracing import (
    LINK_COALESCED,
    LINK_LINEAGE,
    assemble_trees,
)

from .conftest import decision_chain, ev


def conserved(assembler):
    return assembler.stats.assembled == len(assembler.trees())


class TestChainGrouping:
    def test_one_tree_per_cid(self):
        events = decision_chain() + decision_chain(cid="m0#2", t0=1.0)
        traces = assemble_trees(events)
        assert [t.cid for t in traces.trees()] == ["m0#1", "m0#2"]
        assert all(t.complete for t in traces.trees())

    def test_terminal_marks_complete_open_chain_stays_incomplete(self):
        events = decision_chain()
        events += decision_chain(cid="m0#2", t0=1.0)[:-1]  # no delivery
        traces = assemble_trees(events)
        by_cid = {t.cid: t for t in traces.trees()}
        assert by_cid["m0#1"].complete
        assert not by_cid["m0#2"].complete  # flushed by finish()

    def test_out_of_order_feed_matches_sorted_feed(self):
        events = decision_chain() + decision_chain(cid="m0#2", t0=1.0)
        shuffled = list(events)
        random.Random(7).shuffle(shuffled)
        assert (
            assemble_trees(events).digest()
            == assemble_trees(shuffled).digest()
        )

    def test_double_assembly_is_byte_deterministic(self):
        events = decision_chain() + [ev(0.1, ek.FAULT_INJECTED, meeting="")]
        assert (
            assemble_trees(events).digest()
            == assemble_trees(events).digest()
        )


class TestCoalescedFanIn:
    def events_with_batch(self):
        return [
            ev(0.00, ek.INGRESS_ENQUEUED, cid="m0#1"),
            ev(0.05, ek.INGRESS_ENQUEUED, cid="m0#2"),
            ev(0.10, ek.INGRESS_ENQUEUED, cid="m0#3"),
            ev(0.20, ek.INGRESS_DEQUEUED, cid="m0#3", batch=3),
            ev(0.30, ek.SOLVE_SERVED, cid="m0#3"),
            ev(0.35, ek.TMMBR_PUSH, cid="m0#3"),
        ]

    def test_batch_absorbs_oldest_pending_envelopes(self):
        traces = assemble_trees(self.events_with_batch())
        roots = traces.trees()
        assert [t.cid for t in roots] == ["m0#3"]
        children = roots[0].children
        assert [c.cid for c in children] == ["m0#1", "m0#2"]
        assert all(c.link == LINK_COALESCED for c in children)
        assert all(c.parent_cid == "m0#3" for c in children)

    def test_batch_one_claims_nothing(self):
        events = decision_chain() + decision_chain(cid="m0#2", t0=1.0)
        traces = assemble_trees(events)
        assert all(not t.children for t in traces.trees())

    def test_claim_capped_by_batch_size(self):
        events = self.events_with_batch()
        events[3] = ev(0.20, ek.INGRESS_DEQUEUED, cid="m0#3", batch=2)
        traces = assemble_trees(events)
        roots = {t.cid: t for t in traces.trees()}
        assert [c.cid for c in roots["m0#3"].children] == ["m0#1"]
        assert "m0#2" in roots  # unclaimed envelope stands alone

    def test_fan_in_is_scoped_per_meeting(self):
        events = [
            ev(0.0, ek.INGRESS_ENQUEUED, meeting="m1", cid="m1#1"),
            ev(0.1, ek.INGRESS_ENQUEUED, meeting="m0", cid="m0#1"),
            ev(0.2, ek.INGRESS_DEQUEUED, meeting="m0", cid="m0#1", batch=3),
            ev(0.3, ek.TMMBR_PUSH, meeting="m0", cid="m0#1"),
        ]
        traces = assemble_trees(events)
        m0 = traces.trees("m0")[0]
        assert not m0.children  # m1's envelope is not claimable


class TestLineage:
    def test_parent_cid_attaches_refresh_under_predecessor(self):
        events = decision_chain()
        events += [
            ev(5.0, ek.TIME_TRIGGER, cid="m0#2", parent_cid="m0#1"),
            ev(5.2, ek.TMMBR_PUSH, cid="m0#2"),
        ]
        traces = assemble_trees(events)
        roots = traces.trees()
        assert [t.cid for t in roots] == ["m0#1"]
        child = roots[0].children[0]
        assert child.cid == "m0#2"
        assert child.link == LINK_LINEAGE

    def test_unknown_parent_stands_alone(self):
        events = [
            ev(5.0, ek.TIME_TRIGGER, cid="m0#2", parent_cid="m0#9"),
            ev(5.2, ek.TMMBR_PUSH, cid="m0#2"),
        ]
        traces = assemble_trees(events)
        assert [t.cid for t in traces.trees()] == ["m0#2"]
        assert traces.trees()[0].link == ""

    def test_self_parent_is_ignored(self):
        events = [
            ev(5.0, ek.TIME_TRIGGER, cid="m0#2", parent_cid="m0#2"),
            ev(5.2, ek.TMMBR_PUSH, cid="m0#2"),
        ]
        traces = assemble_trees(events)
        assert [t.cid for t in traces.trees()] == ["m0#2"]

    def test_non_root_kind_ignores_parent_cid(self):
        events = decision_chain()
        events.append(
            ev(9.0, ek.SOLVE_SERVED, cid="m0#9", parent_cid="m0#1")
        )
        traces = assemble_trees(events)
        assert {t.cid for t in traces.trees()} == {"m0#1", "m0#9"}


class TestOrphans:
    def test_ambient_events_are_counted_and_retained(self):
        events = decision_chain()
        events.append(ev(0.5, ek.SHARD_KILLED, meeting="", shard="s0"))
        traces = assemble_trees(events)
        assert traces.stats.orphan_events == 1
        ambient = [t for t in traces.trees() if t.cid == ""]
        assert len(ambient) == 1
        assert ambient[0].events[0].kind == ek.SHARD_KILLED
        assert conserved(traces)


class TestBoundedMemory:
    """The assembler holds what the (bounded) event log holds: every
    finalized tree is kept and accounted for."""

    def test_conservation_across_mixed_churn(self):
        events = []
        for n in range(1, 25):
            events += decision_chain(cid=f"m0#{n}", t0=float(n))
            events.append(ev(float(n) + 0.5, ek.FAULT_INJECTED, meeting=""))
        # An unterminated envelope is flushed by finish(), not dropped.
        events.append(ev(30.0, ek.INGRESS_ENQUEUED, cid="m0#99"))
        traces = assemble_trees(events)
        assert traces.stats.assembled == 24 + 24 + 1
        assert conserved(traces)


class TestRegistryCounters:
    def test_counters_emitted_when_registry_enabled(self):
        events = []
        for n in range(1, 10):
            events += decision_chain(cid=f"m0#{n}", t0=float(n))
        events.append(ev(0.5, ek.FAULT_INJECTED, meeting=""))
        with enabled_registry() as reg:
            traces = assemble_trees(events)
            counters = reg.snapshot()["counters"]
        assert counters[obs_names.TRACE_TREES_ASSEMBLED] == traces.stats.assembled == 10
        assert counters[obs_names.TRACE_ORPHAN_EVENTS] == 1

    def test_assembly_observes_no_stage_histogram(self):
        # The plane attributes each decision's stages once, at commit;
        # assembling a log at query time must not count them again.
        with enabled_registry() as reg:
            traces = assemble_trees(decision_chain())
            assert traces.stats.assembled == 1
            assert all(
                reg.histogram(
                    obs_names.TRACE_STAGE_SECONDS, stage=stage
                ).count == 0
                for stage in ("mailbox_dwell", "solve", "delivery")
            )

    def test_assembly_span_recorded(self):
        with enabled_registry() as reg:
            assemble_trees(decision_chain())
            hist = reg.histogram(
                obs_names.SPAN_SECONDS, span=obs_names.SPAN_TRACE_ASSEMBLE
            )
            assert hist.count == 1
