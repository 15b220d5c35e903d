"""The supervision core: respawn budget, backoff, idempotent teardown."""

import asyncio
import sys

import pytest

from repro.cluster.protocol import ControlChannel
from repro.cluster.supervise import RespawnPolicy, SupervisorCore
from repro.core.msgtypes import MsgType
from repro.errors import ClusterError
from repro.telemetry import Telemetry
from repro.telemetry.tracing import EventType

from tests.cluster.helpers import FakeProc, RecordingChan, start_fleet, stop_fleet
from repro.cluster.scenarios import wait_until


def run(coro):
    return asyncio.run(coro)


def crash_on_boot(controller, name: str) -> None:
    """Make ``name``'s worker die right after a successful W_REGISTER."""
    original = controller.child_spec

    def spec(state) -> dict:
        built = original(state)
        if state.name == name:
            built["exit_after_register"] = True
        return built

    controller.child_spec = spec


class TestRespawnPolicy:
    def test_backoff_doubles_from_the_second_attempt(self):
        policy = RespawnPolicy(backoff_base=0.25, backoff_max=5.0)
        assert policy.delay(1) == 0.0
        assert policy.delay(2) == 0.25
        assert policy.delay(3) == 0.5
        assert policy.delay(4) == 1.0

    def test_backoff_is_capped(self):
        policy = RespawnPolicy(backoff_base=0.25, backoff_max=1.0)
        assert policy.delay(10) == 1.0


class TestRespawnBudget:
    def test_crash_looping_worker_is_abandoned_not_spun_forever(self):
        """A worker that dies on boot burns its budget, then stops respawning.

        Without the budget the controller would relaunch a doomed
        process at full speed forever; with it, each consecutive early
        death backs off exponentially and the streak is capped.
        """

        async def scenario():
            telemetry = Telemetry()
            observer, controller = await start_fleet(
                workers=1, telemetry=telemetry, respawn=RespawnPolicy(
                    max_consecutive=2, backoff_base=0.05, backoff_max=0.2,
                    min_uptime=60.0,
                ),
            )
            try:
                # Flip w0 to crash-on-boot, then kill the healthy
                # incarnation: every respawn from here dies immediately.
                crash_on_boot(controller, "w0")
                controller.workers["w0"].process.kill()

                ok = await wait_until(
                    lambda: controller.respawns_abandoned == 1,
                    timeout=30.0,
                )
                assert ok, "budget never exhausted"
                # initial kill + 2 budgeted respawns, then abandonment
                assert controller.worker_deaths == 3
                assert not controller.workers["w0"].alive

                # give any stray respawn a moment to (wrongly) fire
                await asyncio.sleep(0.5)
                assert controller.respawns_abandoned == 1
                assert controller.worker_deaths == 3

                events = [e.event for e in telemetry.tracer.events()]
                assert EventType.RESPAWN_BACKOFF in events
                assert EventType.RESPAWN_EXHAUSTED in events
                backoffs = [
                    e.detail for e in telemetry.tracer.events()
                    if e.event == EventType.RESPAWN_BACKOFF
                ]
                # the second attempt is the first delayed one
                assert backoffs[0]["attempt"] == 2
            finally:
                await stop_fleet(observer, controller)

        run(scenario())

    def test_healthy_uptime_resets_the_streak(self):
        async def scenario():
            observer, controller = await start_fleet(
                workers=1, respawn=RespawnPolicy(
                    max_consecutive=1, backoff_base=0.01,
                    min_uptime=0.0,  # any uptime counts as healthy
                ),
            )
            try:
                for _ in range(3):  # would exhaust a max=1 budget if streaks
                    state = controller.workers["w0"]  # accumulated
                    state.process.kill()
                    ok = await wait_until(
                        lambda: controller.workers["w0"].alive
                        and controller.workers["w0"].process.returncode is None,
                        timeout=30.0,
                    )
                    assert ok, "respawn never completed"
                assert controller.respawns_abandoned == 0
            finally:
                await stop_fleet(observer, controller)

        run(scenario())


class TestStopIdempotence:
    def test_nested_and_concurrent_stops_resolve_to_one_teardown(self):
        async def scenario():
            observer, controller = await start_fleet(workers=2)
            await asyncio.gather(controller.stop(), controller.stop())
            await controller.stop()  # and once more, after completion
            for state in controller.workers.values():
                assert state.process.returncode is not None
            await observer.stop()

        run(scenario())

    def test_stop_during_pending_respawn_reaps_everything(self):
        """stop() racing the respawn path must not orphan any process."""

        async def scenario():
            observer, controller = await start_fleet(
                workers=1, respawn=RespawnPolicy(
                    # long backoff: the stop lands while the respawn waits
                    backoff_base=30.0, min_uptime=60.0,
                ),
            )
            # The first respawn fires immediately (streak 1 has no
            # backoff) and dies on boot; the second is the one that
            # sits in its 30s backoff when stop() arrives.
            crash_on_boot(controller, "w0")
            controller.workers["w0"].process.kill()
            ok = await wait_until(
                lambda: controller.worker_deaths >= 2, timeout=30.0
            )
            assert ok
            await controller.stop()
            await controller.stop()  # idempotent after the race too
            for state in controller.workers.values():
                if state.process is not None:
                    assert state.process.returncode is not None
            await observer.stop()

        run(scenario())

    def test_stop_racing_an_inflight_spawn_never_orphans_it(self):
        async def scenario():
            observer, controller = await start_fleet(workers=1)
            spawn = asyncio.ensure_future(controller.spawn_worker("w9"))
            await asyncio.sleep(0)  # let the exec get underway
            await controller.stop()
            # Either the spawn lost the race (refused / killed) or it
            # registered just before the teardown swept it — both end
            # with no live process.
            try:
                await spawn
            except ClusterError:
                pass
            state = controller.workers.get("w9")
            if state is not None and state.process is not None:
                await asyncio.wait_for(state.process.wait(), 10.0)
                assert state.process.returncode is not None
            await observer.stop()

        run(scenario())

    def test_spawn_after_stop_is_refused(self):
        async def scenario():
            observer, controller = await start_fleet(workers=1)
            await stop_fleet(observer, controller)
            with pytest.raises(ClusterError):
                await controller.spawn_worker("w1")

        run(scenario())


class SleeperCore(SupervisorCore):
    """A bare frontend whose children boot but never register."""

    def child_argv(self, state):
        return [sys.executable, "-c", "import time; time.sleep(60)"]


class _MutatingChan(RecordingChan):
    """A channel whose send adopts a new child (a join mid-stop)."""

    def __init__(self, core: SupervisorCore) -> None:
        self._core = core

    async def send(self, type_, seq=0, **fields) -> None:
        name = f"late{len(self._core.children)}"
        adopted = self._core.state_class(name=name)
        adopted.adopted = True
        self._core.children[name] = adopted


class TestRegisterTimeout:
    def test_timed_out_child_is_killed_and_reaped(self):
        """A child that never registers must not keep running after the
        ClusterError — left alive it could register later and satisfy a
        newer incarnation's waiter."""

        async def scenario():
            core = SleeperCore(register_timeout=0.3)
            await core.start_server()
            try:
                with pytest.raises(ClusterError):
                    await core.launch_child("x")
                proc = core.children["x"].process
                assert proc is not None
                assert proc.returncode is not None
            finally:
                await core.stop()

        run(scenario())

    def test_stale_incarnation_cannot_register_for_a_newer_one(self):
        """A registration whose pid is not the supervised process's pid
        is refused instead of attaching its channel to the fresh state."""

        async def scenario():
            core = SleeperCore(register_timeout=5.0)
            await core.start_server()
            try:
                state = core.state_class(name="x")
                state.process = FakeProc(pid=4242)
                core.children["x"] = state
                waiter = asyncio.get_running_loop().create_future()
                core._register_waiters["x"] = waiter

                reader, writer = await asyncio.open_connection("127.0.0.1", core.port)
                stale = ControlChannel(reader, writer)
                await stale.send(MsgType.W_REGISTER, name="x", pid=999)
                with pytest.raises((asyncio.IncompleteReadError, ConnectionError)):
                    await asyncio.wait_for(stale.recv(), 10.0)
                assert not waiter.done()
                stale.close()

                reader, writer = await asyncio.open_connection("127.0.0.1", core.port)
                fresh = ControlChannel(reader, writer)
                await fresh.send(MsgType.W_REGISTER, name="x", pid=4242)
                await asyncio.wait_for(waiter, 10.0)
                assert core.children["x"].pid == 4242
                fresh.close()
            finally:
                await core.stop()

        run(scenario())


class TestStopUnderAdoption:
    def test_children_adopted_mid_stop_do_not_abort_teardown(self):
        """A child dict growing between stop()'s await points (a joiner
        adopted mid-teardown) must not abort the drain — and the second
        stop() must still return instead of waiting forever."""

        async def scenario():
            core = SleeperCore(adopt_unknown=True)
            await core.start_server()
            for i in range(2):
                state = core.state_class(name=f"a{i}")
                state.adopted = True
                state.alive = True
                state.chan = _MutatingChan(core)
                core.children[state.name] = state
            await asyncio.wait_for(core.stop(), 10.0)
            await asyncio.wait_for(core.stop(), 10.0)

        run(scenario())


class TestRequestCancellation:
    def test_cancelling_the_caller_is_not_swallowed(self):
        """Cancellation of the requesting task itself must propagate —
        mapping it to ClusterError would let a shutdown-cancelled
        redeploy loop keep running."""

        async def scenario():
            core = SleeperCore(request_timeout=30.0)
            state = core.state_class(name="x")
            state.alive = True
            state.chan = RecordingChan()
            task = asyncio.ensure_future(core.request(state, MsgType.W_NODE_INFO))
            await asyncio.sleep(0.05)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            assert not core._pending

        run(scenario())

    def test_teardown_dropping_the_pending_future_maps_to_cluster_error(self):
        async def scenario():
            core = SleeperCore(request_timeout=30.0)
            state = core.state_class(name="x")
            state.alive = True
            state.chan = RecordingChan()
            task = asyncio.ensure_future(core.request(state, MsgType.W_NODE_INFO))
            await asyncio.sleep(0.05)
            for fut in list(core._pending.values()):
                fut.cancel()
            with pytest.raises(ClusterError):
                await task

        run(scenario())
