"""Tests for the ingress plane itself (``repro.ingress.plane``).

A test-local :class:`FakeBackend` isolates the plane mechanics —
mailboxes, backpressure windows, coalescing, shedding, the executor —
from the real cluster, so decisions are cheap and the virtual-time
arithmetic is exact.  Includes the PR's coalescing property test over
out-of-order / duplicate SEMB timestamps.
"""

import dataclasses
import time

import pytest

from repro.chaos.world import ChaosWorld
from repro.cluster import ClusterConfig, ControllerCluster
from repro.cluster.scheduler import backpressure_window_s
from repro.ingress.aio import SimRuntime
from repro.ingress.events import LinkEstimate, SembReport, SubscriptionChange
from repro.ingress.faults import (
    DELAY_SEMB,
    DROP_SEMB,
    StreamFault,
    StreamFaultInjector,
)
from repro.ingress.plane import (
    BackendDecision,
    ClusterBackend,
    IngressBackend,
    IngressConfig,
    IngressPlane,
    SHED_ADMISSION,
    SHED_OVERFLOW,
)
from repro.obs import events as obs_events
from repro.obs import names as obs_names
from repro.obs.events import EventLog
from repro.obs.registry import enabled_registry


class FakeBackend(IngressBackend):
    """A content-free decision engine with an exact virtual cost model."""

    min_interval_s = 0.5
    max_interval_s = 1.5

    def __init__(self, service_s=0.01, budget=None, lose=False):
        self.applied = []
        self.decided = []
        self.shed_calls = []
        self._service = service_s
        self._budget = budget  # None = never over budget
        self._lose = lose  # every TMMBR push is lost in flight

    def apply_event(self, event):
        self.applied.append(event)

    def payload(self, meeting):
        return meeting

    def service_s(self, meeting, payload):
        return self._service

    def backpressure_window_s(self, meeting, depth, capacity):
        return backpressure_window_s(
            depth, capacity, self.min_interval_s, self.max_interval_s
        )

    def over_budget(self, meeting, in_flight):
        return self._budget is not None and in_flight >= self._budget

    def decide(self, meeting, payload, now_s, trigger, cid):
        self.decided.append((meeting, now_s, trigger, cid))
        return BackendDecision(
            source="solve",
            digest=f"{meeting}:{len(self.decided)}",
            delivered=not self._lose,
        )

    def shed(self, meeting, payload, now_s, trigger, cid):
        self.shed_calls.append((meeting, now_s, trigger, cid))
        return BackendDecision(source="shed", digest="shed")


def _plane(backend=None, **cfg):
    runtime = SimRuntime()
    backend = backend or FakeBackend()
    defaults = dict(mailbox_capacity=4, solve_slots=2, drain_s=3.0)
    defaults.update(cfg)
    plane = IngressPlane(runtime, backend, IngressConfig(**defaults))
    return plane, backend


def _semb(at_s, meeting="m", seq=0):
    return SembReport(at_s=at_s, meeting=meeting, seq=seq)


class TestPlaneBasics:
    def test_config_has_no_service_model_knobs(self):
        # The virtual service time is a module constant of the plane; a
        # new field here is a new configuration the benchmark must cover.
        assert [f.name for f in dataclasses.fields(IngressConfig)] == [
            "mailbox_capacity", "solve_slots", "drain_s",
        ]

    def test_single_event_decides_after_min_interval(self):
        plane, backend = _plane()
        plane.run_stream([_semb(0.0)], duration_s=1.0)
        assert len(plane.decisions) == 1
        d = plane.decisions[0]
        # window = min_interval (depth 1) + virtual service time
        assert abs(d.decided_at_s - 0.51) < 1e-9
        assert d.opened_at_s == 0.0
        assert d.trigger == "event"
        assert d.source == "solve"
        assert d.batch == 1

    def test_burst_coalesces_into_one_decision(self):
        plane, backend = _plane()
        events = [_semb(0.0, seq=i) for i in range(3)]
        plane.run_stream(events, duration_s=1.0)
        assert len(plane.decisions) == 1
        assert plane.decisions[0].batch == 3
        assert plane.stats.coalesced == 2
        assert len(backend.decided) == 1

    def test_backpressure_widens_the_window_with_depth(self):
        # Burst of 4 into capacity 4: worker sees depth 4 -> the window
        # stretches toward max_interval instead of the min floor.
        plane, _ = _plane()
        plane.run_stream([_semb(0.0, seq=i) for i in range(4)],
                         duration_s=1.0)
        assert len(plane.decisions) == 1
        window = plane.decisions[0].decided_at_s - 0.01
        assert window > FakeBackend.min_interval_s + 1e-9
        assert window <= FakeBackend.max_interval_s + 1e-9

    def test_decisions_keep_min_interval_spacing(self):
        plane, _ = _plane()
        events = [_semb(round(0.1 * i, 3), seq=i) for i in range(30)]
        plane.run_stream(events, duration_s=3.0)
        decided = [d.decided_at_s for d in plane.decisions]
        assert len(decided) >= 2
        for a, b in zip(decided, decided[1:]):
            assert b - a >= FakeBackend.min_interval_s - 1e-9

    def test_mutations_apply_at_offer_time(self):
        plane, backend = _plane()
        events = [
            LinkEstimate(at_s=0.0, meeting="m", client="c", seq=0),
            _semb(0.2, seq=1),
        ]
        plane.run_stream(events, duration_s=1.0)
        assert [e.kind for e in backend.applied] == ["link_estimate", "semb"]

    def test_meetings_get_independent_mailboxes(self):
        plane, _ = _plane()
        events = [_semb(0.0, meeting="a", seq=0),
                  _semb(0.0, meeting="b", seq=1)]
        plane.run_stream(events, duration_s=1.0)
        assert plane.meetings == ["a", "b"]
        assert len(plane.decisions) == 2
        assert {d.meeting for d in plane.decisions} == {"a", "b"}

    def test_refuses_non_finite_drain(self):
        # A nan drain used to be accepted: run_stream then offered no
        # event and decided nothing.
        for value in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ValueError, match="drain_s"):
                IngressConfig(drain_s=value)


def _count_timers(plane):
    """Count ``sim.schedule`` calls the way ``bench/``'s
    ``net.sim_scheduled`` counter does: an instance attribute wrapping
    the bound method, so ``schedule_at`` is counted too."""
    sim = plane.runtime.sim
    original = sim.schedule
    counted = [0]

    def schedule(delay, callback):
        counted[0] += 1
        return original(delay, callback)

    sim.schedule = schedule
    return counted


class TestTimerBudget:
    """One timer per stage: an offer, then per event-triggered decision
    the put -> window hop, the window, the service and the ceiling the
    idle worker re-arms; a time-triggered decision costs its service
    and its ceiling."""

    def test_one_meeting_costs_four_timers_per_event_decision(self):
        plane, _ = _plane()
        counted = _count_timers(plane)
        stream = [_semb(0.0), _semb(0.2, seq=1), _semb(5.0, seq=2)]
        plane.run_stream(stream, duration_s=6.0)
        triggers = [d.trigger for d in plane.decisions]
        # Refreshes at 2.01 and 3.52; the ceiling after the 5.0 report's
        # decision lands past the horizon (6.0) and retires the worker.
        assert triggers == ["event", "time", "time", "event"]
        assert counted[0] == (
            len(stream)
            + 4 * triggers.count("event")
            + 2 * triggers.count("time")
        )

    def test_a_burst_costs_one_hop(self):
        plane, _ = _plane(drain_s=2.0)
        counted = _count_timers(plane)
        plane.run_stream([_semb(0.0, seq=i) for i in range(3)])
        assert [d.batch for d in plane.decisions] == [3]
        assert counted[0] == 3 + 4

    def test_queued_admission_adds_no_hop(self):
        plane, _ = _plane(solve_slots=1, drain_s=0.6)
        counted = _count_timers(plane)
        plane.run_stream(
            [_semb(0.0, meeting="a"), _semb(0.0, meeting="b", seq=1)]
        )
        # b's window closes with a's solve in the one slot: b queues and
        # starts its service the instant a's ends.
        decided = [(d.meeting, d.decided_at_s) for d in plane.decisions]
        assert decided == [("a", pytest.approx(0.51)),
                           ("b", pytest.approx(0.52))]
        assert counted[0] == 2 + 4 * 2


class TestWorkerStages:
    def test_put_wakes_an_idle_worker(self):
        backend = FakeBackend()
        backend.max_interval_s = 10.0  # no ceiling inside the run
        plane, _ = _plane(backend)
        plane.run_stream([_semb(0.0), _semb(5.0, seq=1)], duration_s=6.0)
        assert [
            (d.trigger, d.opened_at_s, d.decided_at_s)
            for d in plane.decisions
        ] == [
            ("event", 0.0, pytest.approx(0.51)),
            ("event", 5.0, pytest.approx(5.51)),
        ]

    def test_idle_worker_refreshes_on_the_ceiling(self):
        plane, _ = _plane()
        plane.run_stream([_semb(0.0)], duration_s=2.5)
        # 0.51 + max_interval (1.5) = 2.01 refreshes; the next ceiling
        # (3.52) is past the stream horizon, so the worker retires.
        assert [
            (d.trigger, d.opened_at_s, d.decided_at_s)
            for d in plane.decisions
        ] == [
            ("event", 0.0, pytest.approx(0.51)),
            ("time", pytest.approx(2.01), pytest.approx(2.02)),
        ]

    def test_an_event_cannot_push_a_decision_past_the_ceiling(self):
        # The ceiling after the 0.5 decision is due at 2.0.  A report at
        # 1.95 cancels it; its window closes at 2.0, not at 2.45.
        plane, _ = _plane(FakeBackend(service_s=0.0))
        plane.run_stream([_semb(0.0), _semb(1.95, seq=1)], duration_s=2.5)
        assert [
            (d.trigger, d.opened_at_s, d.decided_at_s)
            for d in plane.decisions
        ] == [
            ("event", 0.0, pytest.approx(0.5)),
            ("event", 1.95, pytest.approx(2.0)),
        ]

    def test_equal_time_windows_close_in_offer_order(self):
        def one_run(order):
            plane, _ = _plane(solve_slots=3)
            plane.run_stream(
                [_semb(0.0, meeting=m, seq=i) for i, m in enumerate(order)]
            )
            return [d.meeting for d in plane.decisions]

        assert one_run("cab") == ["c", "a", "b"]
        assert one_run("bca") == ["b", "c", "a"]
        assert all(one_run("cab") == ["c", "a", "b"] for _ in range(3))


class TestExecutor:
    def _stream(self, meetings):
        return [_semb(0.0, meeting=f"m{k}", seq=k) for k in range(meetings)]

    def test_bounds_concurrency(self):
        backend = FakeBackend(service_s=1.0)
        backend.max_interval_s = 10.0
        plane, _ = _plane(backend, solve_slots=2, drain_s=4.0)
        plane.run_stream(self._stream(5))
        # Every window closes at 0.5; two solves are in service at once.
        assert [d.decided_at_s for d in plane.decisions] == [
            1.5, 1.5, 2.5, 2.5, 3.5
        ]

    def test_queued_admissions_resume_fifo(self):
        plane, _ = _plane(FakeBackend(service_s=0.5), solve_slots=1)
        plane.run_stream(self._stream(4))
        assert [(d.meeting, d.decided_at_s) for d in plane.decisions] == [
            ("m0", 1.0), ("m1", 1.5), ("m2", 2.0), ("m3", 2.5)
        ]

    def test_rejects_zero_slots(self):
        with pytest.raises(ValueError, match="solve_slots"):
            IngressConfig(solve_slots=0)


class TestFailFast:
    def test_backend_error_propagates_at_its_instant(self):
        class ExplodingBackend(FakeBackend):
            def decide(self, meeting, payload, now_s, trigger, cid):
                if self.decided:
                    raise RuntimeError("solver died")
                return super().decide(meeting, payload, now_s, trigger, cid)

        plane, _ = _plane(ExplodingBackend())
        with pytest.raises(RuntimeError, match="solver died"):
            plane.run_stream([_semb(0.0), _semb(2.0, seq=1)],
                             duration_s=4.0)
        # The second decision's window closed at 2.01, the ceiling the
        # 2.0 report cancelled, and its service ended at 2.02: the run
        # stops there, not after the drain.
        assert plane.runtime.now == pytest.approx(2.02)
        assert len(plane.decisions) == 1

    def test_call_at_runs_at_absolute_time(self):
        runtime = SimRuntime()
        seen = []
        runtime.call_at(2.0, lambda: seen.append(runtime.now))
        runtime.call_at(1.0, lambda: seen.append(runtime.now))
        runtime.run_until(5.0)
        assert seen == [1.0, 2.0]


class TestShedding:
    def test_overflow_sheds_to_fallback(self):
        plane, backend = _plane(mailbox_capacity=2)
        events = [_semb(0.0, seq=i) for i in range(6)]
        plane.run_stream(events, duration_s=1.0)
        assert plane.stats.evicted > 0
        assert plane.stats.shed_overflow >= 1
        assert backend.shed_calls, "overflow must degrade via backend.shed"
        shed = [d for d in plane.decisions if d.source == "shed"]
        assert shed and shed[0].trigger == "event"

    def test_admission_over_budget_sheds(self):
        plane, backend = _plane(backend=FakeBackend(budget=0))
        plane.run_stream([_semb(0.0)], duration_s=1.0)
        assert plane.stats.shed_admission == 1
        assert plane.stats.shed_overflow == 0
        assert not backend.decided
        assert plane.decisions[0].source == "shed"

    def test_shed_reasons_land_in_the_event_log(self):
        log = EventLog()
        with obs_events.record_events(log):
            plane, _ = _plane(backend=FakeBackend(budget=0))
            plane.run_stream([_semb(0.0)], duration_s=1.0)
        sheds = [e for e in log.events
                 if e.kind == obs_events.INGRESS_SHED]
        assert len(sheds) == 1
        assert sheds[0].attrs["reason"] == SHED_ADMISSION
        assert SHED_OVERFLOW != SHED_ADMISSION


class TestDecideSpan:
    def test_span_times_the_backend_call_not_other_meetings_work(self):
        """``ingress.decide`` covers the synchronous backend call only.
        Held across the executor wait, each waiter's span would also
        enclose every predecessor's call."""

        class TimedBackend(FakeBackend):
            inside_s = 0.0

            def decide(self, meeting, payload, now_s, trigger, cid):
                start = time.perf_counter()
                while time.perf_counter() - start < 0.002:
                    pass
                result = super().decide(meeting, payload, now_s, trigger, cid)
                self.inside_s += time.perf_counter() - start
                return result

        meetings = 12
        plane, backend = _plane(TimedBackend(), solve_slots=2)
        stream = [_semb(0.0, meeting=f"m{k}") for k in range(meetings)]
        with enabled_registry() as reg:
            # Every window closes at the same virtual instant (0.5 s).
            plane.run_stream(stream, duration_s=1.0)
            hist = reg.histogram(
                obs_names.SPAN_SECONDS, span=obs_names.SPAN_INGRESS_DECIDE
            )
        assert len(plane.decisions) == meetings
        assert hist.count == meetings
        assert hist.sum <= 2 * backend.inside_s


class TestCorrelationIds:
    def test_decision_carries_oldest_batched_cid(self):
        log = EventLog()
        with obs_events.record_events(log):
            plane, _ = _plane()
            plane.run_stream([_semb(0.0, seq=0), _semb(0.1, seq=1)],
                             duration_s=1.0)
        assert len(plane.decisions) == 1
        assert plane.decisions[0].cid == "m#1"

    def test_tmmbr_push_closes_the_cid_chain(self):
        log = EventLog()
        with obs_events.record_events(log):
            plane, _ = _plane()
            events = [_semb(round(0.4 * i, 3), seq=i) for i in range(8)]
            plane.run_stream(events, duration_s=3.0)
        minted = {
            e.cid
            for e in log.events
            if e.kind in (obs_events.INGRESS_ENQUEUED,
                          obs_events.TIME_TRIGGER)
        }
        pushes = [e for e in log.events if e.kind == obs_events.TMMBR_PUSH]
        assert pushes
        assert all(p.cid in minted for p in pushes)
        assert len(pushes) == len(plane.decisions)

    def test_undelivered_decision_emits_tmmbr_lost(self):
        log = EventLog()
        with obs_events.record_events(log):
            plane, _ = _plane(backend=FakeBackend(lose=True))
            plane.run_stream([_semb(0.0)], duration_s=1.0)
        kinds = [e.kind for e in log.events]
        assert obs_events.TMMBR_LOST in kinds
        assert obs_events.TMMBR_PUSH not in kinds
        assert len(plane.decisions) == 1

    def test_idle_refresh_mints_time_trigger_cids(self):
        log = EventLog()
        with obs_events.record_events(log):
            plane, _ = _plane()
            # One event, then a long silent horizon: the Fig. 12 ceiling
            # keeps re-deciding from the last snapshot.
            plane.run_stream([_semb(0.0)], duration_s=6.0)
        time_triggers = [e for e in log.events
                         if e.kind == obs_events.TIME_TRIGGER]
        refreshes = [d for d in plane.decisions if d.trigger == "time"]
        assert plane.stats.idle_refreshes == len(refreshes)
        assert refreshes, "drain window should produce an idle refresh"
        assert {e.cid for e in time_triggers} == {d.cid for d in refreshes}


class TestStreamFaultsInThePlane:
    def test_dropped_semb_never_reaches_a_mailbox(self):
        plane, backend = _plane()
        injector = StreamFaultInjector(
            [StreamFault(DROP_SEMB, start_s=0.0, end_s=10.0)]
        )
        plane.run_stream([_semb(0.5), _semb(1.0, seq=1)], injector,
                         duration_s=2.0)
        assert plane.stats.dropped == 2
        assert plane.stats.enqueued == 0
        assert not plane.decisions

    def test_delayed_semb_is_offered_late(self):
        plane, _ = _plane()
        injector = StreamFaultInjector(
            [StreamFault(DELAY_SEMB, start_s=0.0, end_s=1.0, delay_s=2.0)]
        )
        plane.run_stream([_semb(0.5)], injector, duration_s=4.0)
        assert plane.stats.delayed == 1
        assert len(plane.decisions) == 1
        # Offered at 2.5 (0.5 + 2.0 hold): the commit lands after that,
        # and the reported latency charges the fault's hold time.
        d = plane.decisions[0]
        assert d.opened_at_s == 0.5
        assert d.decided_at_s >= 2.5 + FakeBackend.min_interval_s
        assert d.latency_s >= 2.0


class TestMalformedEvents:
    """Wire-edge regressions: a malformed stream event used to raise out
    of the dispatcher (``KeyError`` for an unknown meeting, ``ValueError``
    / ``OverflowError`` from the world for a non-finite scale) and kill
    the run for every meeting."""

    def _plane(self):
        world = ChaosWorld(seed=1, meetings=2)
        cluster = ControllerCluster(ClusterConfig(shards=1))
        plane = IngressPlane(SimRuntime(), ClusterBackend(cluster, world))
        return plane, world

    @pytest.mark.parametrize(
        "bad, reason",
        [
            (SembReport(0.1, "nope"), "unknown_meeting"),
            (LinkEstimate(0.1, "nope", client="c"), "unknown_meeting"),
            (LinkEstimate(0.1, "chaos-0", down_scale=float("nan")),
             "bad_scale"),
            (LinkEstimate(0.1, "chaos-0", down_scale=float("inf")),
             "bad_scale"),
            (LinkEstimate(0.1, "chaos-0", up_scale=-0.5), "bad_scale"),
        ],
    )
    def test_rejected_counted_logged_and_harmless(self, bad, reason):
        plane, world = self._plane()
        before = world.meeting("chaos-0").version
        log = EventLog()
        with obs_events.record_events(log):
            plane.run_stream(
                [bad, SembReport(0.2, "chaos-1", seq=1)], duration_s=1.0
            )
        stats = plane.stats
        assert (stats.offered, stats.rejected, stats.enqueued) == (2, 1, 1)
        (event,) = [
            e for e in log.events
            if e.attrs.get("fault") == "rejected_event"
        ]
        assert event.kind == obs_events.FAULT_INJECTED
        assert event.attrs["reason"] == reason
        assert event.meeting == bad.meeting
        # The malformed event touched nothing; the other meeting decided.
        assert world.meeting("chaos-0").version == before
        assert plane.meetings == ["chaos-1"]
        assert plane.decisions
        assert {d.meeting for d in plane.decisions} == {"chaos-1"}

    def test_departed_client_falls_back_to_the_first_participant(self):
        # Streams legitimately name clients that have since left; those
        # events keep re-targeting the first participant, never raise.
        plane, world = self._plane()
        before = world.meeting("chaos-0").version
        plane.run_stream(
            [
                LinkEstimate(0.1, "chaos-0", client="ghost", down_scale=0.5),
                SubscriptionChange(0.2, "chaos-0", seq=1, client="ghost"),
            ],
            duration_s=1.0,
        )
        assert plane.stats.rejected == 0
        state = world.meeting("chaos-0")
        assert state.version == before + 2
        assert state.clients[min(state.clients)].down_scale == 0.5


class TestCoalescingProperty:
    def test_coalescing_under_out_of_order_duplicate_timestamps(self):
        """Property: for any (possibly out-of-order, duplicated) SEMB
        timestamp multiset, the plane stays FIFO per meeting, keeps the
        min-interval spacing between committed decisions, conserves
        envelopes (enqueued = dequeued + evicted + left over), and is
        byte-deterministic across a double run."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        timestamps = st.lists(
            st.floats(min_value=0.0, max_value=5.0).map(
                lambda x: round(x, 3)
            ),
            min_size=1,
            max_size=30,
        )

        @settings(max_examples=60, deadline=None)
        @given(times=timestamps)
        def run(times):
            def one_run():
                plane, _ = _plane()
                events = [
                    _semb(t, seq=i) for i, t in enumerate(times)
                ]
                plane.run_stream(events, duration_s=5.0)
                return plane

            plane = one_run()
            assert plane.stats.decisions >= 1
            # FIFO per meeting: windows open in offer order.
            opened = [d.opened_at_s for d in plane.decisions
                      if d.trigger == "event"]
            assert opened == sorted(opened)
            # Fig. 12 floor between consecutive commits.
            decided = [d.decided_at_s for d in plane.decisions]
            for a, b in zip(decided, decided[1:]):
                assert b - a >= FakeBackend.min_interval_s - 1e-9
            # Envelope conservation.
            stats = plane.stats
            left_over = plane._workers["m"].box.depth
            assert stats.enqueued == (
                stats.dequeued + stats.evicted + left_over
            )
            # Every committed batch is accounted once.
            batched = sum(d.batch for d in plane.decisions)
            assert batched <= stats.dequeued
            # Double-run byte determinism.
            replay = one_run()
            key = lambda p: [  # noqa: E731
                (d.meeting, d.cid, d.opened_at_s, d.decided_at_s,
                 d.batch, d.trigger, d.source, d.digest)
                for d in p.decisions
            ]
            assert key(plane) == key(replay)

        run()
