"""Tests for the deterministic coroutine runtime (``repro.ingress.aio``)."""

import pytest

from repro.ingress.aio import SimRuntime, VirtualSemaphore


class TestSimFuture:
    def test_first_result_wins(self):
        runtime = SimRuntime()
        fut = runtime.future()
        assert fut.set_result(1) is True
        assert fut.set_result(2) is False
        assert fut.set_exception(RuntimeError("late")) is False
        assert fut.result() == 1

    def test_exception_is_raised_from_result(self):
        runtime = SimRuntime()
        fut = runtime.future()
        fut.set_exception(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            fut.result()

    def test_done_callback_runs_immediately_when_done(self):
        runtime = SimRuntime()
        fut = runtime.future()
        fut.set_result("x")
        seen = []
        fut.add_done_callback(lambda f: seen.append(f.result()))
        assert seen == ["x"]

    def test_result_before_done_raises(self):
        runtime = SimRuntime()
        with pytest.raises(RuntimeError):
            runtime.future().result()


class TestSimRuntime:
    def test_sleep_advances_virtual_time(self):
        runtime = SimRuntime()
        times = []

        async def sleeper():
            await runtime.sleep(1.5)
            times.append(runtime.now)
            await runtime.sleep(0.5)
            times.append(runtime.now)

        runtime.spawn(sleeper())
        runtime.run_until(10.0)
        assert times == [1.5, 2.0]

    def test_equal_time_wakeups_run_in_spawn_order(self):
        def one_run():
            runtime = SimRuntime()
            local = []

            async def task(name):
                await runtime.sleep(1.0)
                local.append(name)

            for name in ("a", "b", "c"):
                runtime.spawn(task(name))
            runtime.run_until(5.0)
            return local

        first = one_run()
        order = [one_run() for _ in range(3)]
        assert first == ["a", "b", "c"]
        assert all(o == first for o in order)

    def test_task_result_is_awaitable(self):
        runtime = SimRuntime()
        results = []

        async def child():
            await runtime.sleep(1.0)
            return 42

        async def parent():
            task = runtime.spawn(child())
            results.append(await task)

        runtime.spawn(parent())
        runtime.run_until(5.0)
        assert results == [42]

    def test_raise_task_errors_propagates(self):
        runtime = SimRuntime()

        async def bad():
            await runtime.sleep(0.1)
            raise RuntimeError("worker died")

        runtime.spawn(bad())
        runtime.run_until(1.0)
        with pytest.raises(RuntimeError, match="worker died"):
            runtime.raise_task_errors()

    def test_awaiting_foreign_object_fails_loudly(self):
        runtime = SimRuntime()

        class Foreign:
            def __await__(self):
                yield "not-a-sim-future"

        async def bad():
            await Foreign()

        runtime.spawn(bad())
        runtime.run_until(1.0)
        with pytest.raises(TypeError, match="only SimFuture"):
            runtime.raise_task_errors()

    def test_call_at_runs_at_absolute_time(self):
        runtime = SimRuntime()
        seen = []
        runtime.call_at(2.0, lambda: seen.append(runtime.now))
        runtime.call_at(1.0, lambda: seen.append(runtime.now))
        runtime.run_until(5.0)
        assert seen == [1.0, 2.0]


class TestVirtualSemaphore:
    def test_bounds_concurrency(self):
        runtime = SimRuntime()
        sem = VirtualSemaphore(runtime, slots=2)
        active = []
        peak = []

        async def job(name):
            await sem.acquire()
            active.append(name)
            peak.append(len(active))
            await runtime.sleep(1.0)
            active.remove(name)
            sem.release()

        for i in range(5):
            runtime.spawn(job(f"j{i}"))
        runtime.run_until(10.0)
        runtime.raise_task_errors()
        assert max(peak) <= 2
        assert sem.in_use == 0
        assert sem.waiting == 0

    def test_waiters_resume_fifo(self):
        runtime = SimRuntime()
        sem = VirtualSemaphore(runtime, slots=1)
        done = []

        async def job(name, hold_s):
            await sem.acquire()
            await runtime.sleep(hold_s)
            done.append(name)
            sem.release()

        for i in range(4):
            runtime.spawn(job(f"j{i}", 0.5))
        runtime.run_until(10.0)
        runtime.raise_task_errors()
        assert done == ["j0", "j1", "j2", "j3"]

    def test_release_without_hold_raises(self):
        runtime = SimRuntime()
        sem = VirtualSemaphore(runtime, slots=1)
        with pytest.raises(RuntimeError):
            sem.release()

    def test_rejects_zero_slots(self):
        with pytest.raises(ValueError):
            VirtualSemaphore(SimRuntime(), slots=0)
