"""Unit tests for the discrete-event kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim.kernel import Cancelled, Kernel


def test_sleep_advances_virtual_time():
    kernel = Kernel()
    times = []

    async def sleeper():
        await kernel.sleep(1.5)
        times.append(kernel.now)
        await kernel.sleep(2.5)
        times.append(kernel.now)

    kernel.spawn(sleeper())
    kernel.run()
    assert times == [1.5, 4.0]


def test_events_fire_in_time_then_fifo_order():
    kernel = Kernel()
    order = []
    kernel.call_at(2.0, order.append, "b")
    kernel.call_at(1.0, order.append, "a")
    kernel.call_at(2.0, order.append, "c")  # same time as "b", created later
    kernel.run()
    assert order == ["a", "b", "c"]


def test_run_until_stops_at_boundary():
    kernel = Kernel()
    seen = []
    kernel.call_at(1.0, seen.append, 1)
    kernel.call_at(5.0, seen.append, 5)
    stopped = kernel.run(until=3.0)
    assert seen == [1]
    assert stopped == 3.0
    kernel.run()
    assert seen == [1, 5]


def test_run_until_complete_returns_value():
    kernel = Kernel()

    async def compute():
        await kernel.sleep(1)
        return 42

    assert kernel.run_until_complete(compute()) == 42


def test_task_exception_propagates():
    kernel = Kernel()

    async def boom():
        await kernel.sleep(1)
        raise ValueError("kaput")

    kernel.spawn(boom())
    with pytest.raises(SimulationError) as excinfo:
        kernel.run()
    assert isinstance(excinfo.value.__cause__, ValueError)


def test_a_crash_is_raised_once_and_later_runs_carry_on():
    kernel = Kernel()
    ticks = []

    async def boom():
        await kernel.sleep(0.5)
        raise ValueError("kaput")

    async def ticker():
        while True:
            await kernel.sleep(1)
            ticks.append(kernel.now)

    kernel.spawn(boom())
    kernel.spawn(ticker())
    with pytest.raises(SimulationError) as excinfo:
        kernel.run(until=kernel.now + 10)
    assert isinstance(excinfo.value.__cause__, ValueError)
    assert kernel.now == 0.5
    for end in (10.5, 20.5, 30.5):
        before = len(ticks)
        assert kernel.run(until=kernel.now + 10) == end
        assert len(ticks) - before == 10


def test_cancel_waiting_task():
    kernel = Kernel()
    progress = []

    async def sleeper():
        progress.append("start")
        await kernel.sleep(100)
        progress.append("never")

    task = kernel.spawn(sleeper())
    kernel.call_at(1.0, task.cancel)
    kernel.run()
    assert progress == ["start"]
    assert task.cancelled() and task.finished


def test_cancelled_is_not_swallowed_by_except_exception():
    kernel = Kernel()
    caught = []

    async def stubborn():
        try:
            await kernel.sleep(100)
        except Exception:  # must NOT catch Cancelled
            caught.append("exception")

    task = kernel.spawn(stubborn())
    kernel.call_at(1.0, task.cancel)
    kernel.run()
    assert caught == []
    assert task.cancelled()


def test_join_waits_for_task():
    kernel = Kernel()

    async def worker():
        await kernel.sleep(3)
        return "done"

    async def waiter():
        task = kernel.spawn(worker())
        result = await task.join()
        return result, kernel.now

    assert kernel.run_until_complete(waiter()) == ("done", 3.0)


def test_nested_coroutines_delegate():
    kernel = Kernel()

    async def inner():
        await kernel.sleep(2)
        return "inner"

    async def outer():
        return await inner()

    assert kernel.run_until_complete(outer()) == "inner"


def test_scheduling_in_the_past_rejected():
    kernel = Kernel()
    kernel.call_at(5.0, lambda: None)
    kernel.run()
    with pytest.raises(SimulationError):
        kernel.call_at(1.0, lambda: None)


def test_determinism_same_seed_same_interleaving():
    def run_once():
        kernel = Kernel(seed=7)
        trace = []

        async def worker(name, delay):
            for i in range(3):
                await kernel.sleep(delay)
                trace.append((name, kernel.now, kernel.rng.random()))

        kernel.spawn(worker("a", 1.0))
        kernel.spawn(worker("b", 1.0))
        kernel.run()
        return trace

    assert run_once() == run_once()


def test_run_until_complete_deadlock_detection():
    kernel = Kernel()

    async def stuck():
        await kernel.future()  # never resolved

    with pytest.raises(SimulationError, match="deadlock"):
        kernel.run_until_complete(stuck())
