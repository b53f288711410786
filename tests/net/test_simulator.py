"""Unit tests for the discrete-event simulator."""

import pytest

from repro.net.simulator import PeriodicTask, Simulator


class TestSimulator:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.run_until(10.0)
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        sim = Simulator()
        fired = []
        for tag in "abc":
            sim.schedule(1.0, lambda t=tag: fired.append(t))
        sim.run_until(1.0)
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_times(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run_until(5.0)
        assert seen == [1.5]
        assert sim.now == 5.0

    def test_run_until_is_inclusive(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append(1))
        sim.run_until(2.0)
        assert fired == [1]

    def test_events_beyond_horizon_wait(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append(1))
        sim.run_until(4.9)
        assert fired == []
        sim.run_until(5.1)
        assert fired == [1]

    def test_nested_scheduling(self):
        sim = Simulator()
        fired = []

        def outer():
            fired.append(("outer", sim.now))
            sim.schedule(1.0, lambda: fired.append(("inner", sim.now)))

        sim.schedule(1.0, outer)
        sim.run_until(3.0)
        assert fired == [("outer", 1.0), ("inner", 2.0)]

    def test_cancel(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append(1))
        sim.cancel(handle)
        sim.run_until(2.0)
        assert fired == []

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        sim.run_until(3.0)
        seen = []
        sim.schedule_at(5.0, lambda: seen.append(sim.now))
        sim.run_until(6.0)
        assert seen == [5.0]

    def test_rejects_past_scheduling(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-0.1, lambda: None)

    def test_rejects_nan_delay(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(float("nan"), lambda: None)
        with pytest.raises(ValueError):
            sim.schedule_at(float("nan"), lambda: None)
        assert sim.pending_events == 0

    def test_run_until_refuses_nan(self):
        # NaN compares false against every event time: the loop used to
        # return without firing an event that was due.
        sim = Simulator()
        fired = []
        sim.schedule(0.0, lambda: fired.append(sim.now))
        with pytest.raises(ValueError, match="NaN"):
            sim.run_until(float("nan"))
        sim.run_until(0.0)
        assert fired == [0.0]

    def test_run_drains_everything(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(100.0, lambda: fired.append(2))
        sim.run()
        assert fired == [1, 2]


class TestPeriodicTask:
    def test_fires_at_interval(self):
        sim = Simulator()
        times = []
        PeriodicTask(sim, 0.5, lambda: times.append(sim.now))
        sim.run_until(2.0)
        assert times == [0.0, 0.5, 1.0, 1.5, 2.0]

    def test_start_offset(self):
        sim = Simulator()
        times = []
        PeriodicTask(sim, 1.0, lambda: times.append(sim.now), start_offset=0.3)
        sim.run_until(2.5)
        assert times == [0.3, 1.3, 2.3]

    def test_stop_ceases_rescheduling(self):
        sim = Simulator()
        times = []
        task = PeriodicTask(sim, 1.0, lambda: times.append(sim.now))
        sim.schedule(1.5, task.stop)
        sim.run_until(5.0)
        assert times == [0.0, 1.0]

    def test_no_drift(self):
        """1000 iterations of a 0.033 s task land exactly on multiples."""
        sim = Simulator()
        times = []
        PeriodicTask(sim, 0.033, lambda: times.append(sim.now))
        sim.run_until(33.01)
        assert len(times) == 1001
        assert times[-1] == pytest.approx(33.0, abs=1e-6)

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            PeriodicTask(Simulator(), 0.0, lambda: None)


class TestScheduleWindow:
    def test_fires_start_then_end(self):
        sim = Simulator()
        events = []
        sim.schedule_window(
            1.0, 2.0, lambda: events.append(("start", sim.now)),
            lambda: events.append(("end", sim.now)),
        )
        sim.run_until(5.0)
        assert events == [("start", 1.0), ("end", 3.0)]

    def test_zero_duration_is_instantaneous(self):
        sim = Simulator()
        events = []
        sim.schedule_window(
            2.0, 0.0, lambda: events.append("start"),
            lambda: events.append("end"),
        )
        sim.run_until(3.0)
        assert events == ["start", "end"]

    def test_handles_are_cancellable(self):
        sim = Simulator()
        events = []
        start, end = sim.schedule_window(
            1.0, 2.0, lambda: events.append("start"),
            lambda: events.append("end"),
        )
        sim.cancel(end)
        sim.run_until(5.0)
        assert events == ["start"]

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            Simulator().schedule_window(1.0, -1.0, lambda: None, lambda: None)
