"""Tests for the structured event log: emission, correlation ids, ring
eviction, JSONL round-trips, and byte-identical seeded chaos runs."""

import json

import pytest

from repro.obs import names
from repro.obs.events import (
    ALL_EVENT_KINDS,
    DEFAULT_CAPACITY,
    EVENTS_SCHEMA,
    INGRESS_ENQUEUED,
    SOLVE_SERVED,
    TMMBR_PUSH,
    Event,
    EventLog,
    active_event_log,
    record_events,
    set_event_log,
)
from repro.obs.registry import enabled_registry


class TestEventEncoding:
    def test_to_dict_sorts_attrs_and_rounds_time(self):
        event = Event(
            t=1.23456789, seq=3, kind=INGRESS_ENQUEUED, meeting="m", cid="m#1",
            shard="s0", attrs={"zeta": 1, "alpha": "x"},
        )
        row = event.to_dict()
        assert row["record"] == "event"
        assert row["t"] == 1.234568
        assert list(row["attrs"]) == ["alpha", "zeta"]

    def test_round_trip(self):
        event = Event(
            t=2.5, seq=0, kind=TMMBR_PUSH, meeting="m", cid="m#2",
            shard="s1", attrs={"publishers": 4},
        )
        again = Event.from_dict(json.loads(json.dumps(event.to_dict())))
        assert again == event


class TestEventLog:
    def test_emit_assigns_monotonic_seq(self):
        log = EventLog()
        first = log.emit(INGRESS_ENQUEUED, t=1.0, meeting="m")
        second = log.emit(SOLVE_SERVED, t=1.0, meeting="m")
        assert (first.seq, second.seq) == (0, 1)
        assert log.emitted == 2

    def test_mint_is_per_meeting_and_deterministic(self):
        log = EventLog()
        assert log.mint("a") == "a#1"
        assert log.mint("b") == "b#1"
        assert log.mint("a") == "a#2"

    def test_ring_eviction_counts_dropped(self):
        log = EventLog(capacity=2)
        for k in range(5):
            log.emit(INGRESS_ENQUEUED, t=float(k))
        assert len(log) == 2
        assert log.dropped == 3
        assert log.emitted == 5
        assert [e.t for e in log.events] == [3.0, 4.0]

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            EventLog(capacity=0)

    def test_for_meeting_and_kinds(self):
        log = EventLog()
        log.emit(INGRESS_ENQUEUED, t=1.0, meeting="a")
        log.emit(INGRESS_ENQUEUED, t=2.0, meeting="b")
        log.emit(SOLVE_SERVED, t=3.0, meeting="a")
        assert [e.t for e in log.for_meeting("a")] == [1.0, 3.0]
        assert log.kinds() == {INGRESS_ENQUEUED: 2, SOLVE_SERVED: 1}

    def test_metrics_recorded_when_registry_enabled(self):
        log = EventLog(capacity=1)
        with enabled_registry() as reg:
            log.emit(INGRESS_ENQUEUED, t=1.0)
            log.emit(SOLVE_SERVED, t=2.0)  # evicts the first
            snap = reg.snapshot()["counters"]
        emitted = {
            key: value for key, value in snap.items()
            if key.startswith(names.EVENTS_EMITTED)
        }
        assert sum(emitted.values()) == 2
        assert snap[names.EVENTS_DROPPED] == 1


class TestJsonlRoundTrip:
    def _sample(self) -> EventLog:
        log = EventLog()
        cid = log.mint("m")
        log.emit(INGRESS_ENQUEUED, t=1.0, meeting="m", cid=cid, shard="s0",
                 trigger="event")
        log.emit(SOLVE_SERVED, t=1.5, meeting="m", cid=cid, shard="s0",
                 source="solve", iterations=3)
        log.emit(TMMBR_PUSH, t=1.5, meeting="m", cid=cid, publishers=2)
        return log

    def test_header_carries_schema(self):
        header = self._sample().header_dict()
        assert header["record"] == "meta"
        assert header["schema"] == EVENTS_SCHEMA
        assert header["events"] == 3

    def test_round_trip_is_byte_identical(self):
        log = self._sample()
        again = EventLog.from_jsonl_lines(log.to_jsonl_lines())
        assert again.to_jsonl() == log.to_jsonl()
        assert again.digest() == log.digest()
        assert again.emitted == log.emitted

    def test_read_write_file(self, tmp_path):
        log = self._sample()
        path = log.write_jsonl(tmp_path / "events.jsonl")
        again = EventLog.read_jsonl(path)
        assert again.to_jsonl() == log.to_jsonl()

    def test_rejects_unknown_schema(self):
        line = json.dumps({"record": "meta", "schema": "bogus/v9"})
        with pytest.raises(ValueError):
            EventLog.from_jsonl_lines([line])

    def test_digest_changes_with_content(self):
        log = self._sample()
        other = self._sample()
        other.emit(SOLVE_SERVED, t=9.0, meeting="m")
        assert log.digest() != other.digest()


class TestSlot:
    def test_off_by_default(self):
        assert active_event_log() is None

    def test_record_events_installs_and_restores(self):
        with record_events() as log:
            assert active_event_log() is log
        assert active_event_log() is None

    def test_record_events_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with record_events():
                raise RuntimeError("boom")
        assert active_event_log() is None

    def test_nested_logs_restore_previous(self):
        with record_events() as outer:
            with record_events() as inner:
                assert active_event_log() is inner
            assert active_event_log() is outer

    def test_set_event_log_explicit(self):
        log = EventLog()
        set_event_log(log)
        try:
            assert active_event_log() is log
        finally:
            set_event_log(None)
        assert active_event_log() is None

    def test_default_capacity(self):
        with record_events() as log:
            assert log.capacity == DEFAULT_CAPACITY


class TestVocabulary:
    def test_kinds_are_unique(self):
        assert len(set(ALL_EVENT_KINDS)) == len(ALL_EVENT_KINDS)

    def test_kinds_are_snake_case(self):
        for kind in ALL_EVENT_KINDS:
            assert kind == kind.lower()
            assert " " not in kind


class TestSeededDeterminism:
    """Two same-seed chaos runs must produce byte-identical event logs."""

    def test_same_seed_byte_identical(self):
        from repro.chaos import ChaosConfig, run_scenario

        config = ChaosConfig(seed=5, meetings=3, duration_s=6.0)
        logs = []
        for _ in range(2):
            report = run_scenario("bandwidth_collapse", 5, config)
            assert report.event_digest
            logs.append(report.event_digest)
        assert logs[0] == logs[1]
