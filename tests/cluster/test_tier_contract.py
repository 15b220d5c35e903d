"""One placement tier, instantiated twice: the facade behaves identically.

Every test here runs against both instantiations of
:class:`~repro.cluster.tier.PlacementTier` — the worker tier
(:class:`ClusterController` over a real worker process) and the
controller tier (:class:`RootController` over a scripted child, so no
fleet is needed to exercise the root's own logic).  What is asserted is
the contract the shared base owns: the placed map, the error surface of
the facade, the death bookkeeping, and registration hygiene.
"""

import asyncio
import contextlib

import pytest

from repro.cluster.controller import ClusterConfig, ClusterController
from repro.cluster.federation import RootConfig, RootController
from repro.cluster.protocol import ControlChannel
from repro.cluster.scenarios import SINK, wait_until
from repro.cluster.spec import NodeSpec
from repro.core.ids import NodeId
from repro.core.msgtypes import MsgType
from repro.errors import ClusterError
from repro.net.observer_server import ObserverServer
from repro.telemetry import Telemetry
from repro.telemetry.tracing import EventType

from tests.cluster.helpers import FakeChild, FakeProc, RecordingObserver

TIERS = ("worker", "controller")


def run(coro):
    return asyncio.run(coro)


@contextlib.asynccontextmanager
async def running_tier(kind: str, **config):
    """A started tier with one live child; yields (tier, observer, kill)."""
    if kind == "worker":
        server = ObserverServer(NodeId("127.0.0.1", 0), poll_interval=0.2)
        await server.start()
        observer = RecordingObserver(server)
        tier = ClusterController(observer, ClusterConfig(workers=1, **config))
        await tier.start()
        kill = tier.workers["w0"].process.kill
    else:
        server = None
        observer = RecordingObserver()
        tier = RootController(observer, RootConfig(**config))
        await tier.start()
        child = FakeChild("c0", tier.addr)
        await child.join()
        await tier.wait_ready("c0", timeout=10.0)
        kill = child.die
    try:
        yield tier, observer, kill
    finally:
        await tier.stop()
        if server is not None:
            await server.stop()


@pytest.mark.parametrize("kind", TIERS)
class TestFacadeContract:
    def test_duplicate_place_is_refused(self, kind):
        async def scenario():
            async with running_tier(kind) as (tier, _, _kill):
                spec = NodeSpec("sink", SINK)
                placed = await tier.place(spec)
                assert tier.placed["sink"] is placed
                assert tier.node_id("sink") == placed.node_id
                with pytest.raises(ClusterError, match="already placed"):
                    await tier.place(spec)
                assert list(tier.placed) == ["sink"]

        run(scenario())

    def test_unknown_names_fail_loudly_on_every_verb(self, kind):
        async def scenario():
            async with running_tier(kind) as (tier, _, _kill):
                with pytest.raises(ClusterError, match="no placed node"):
                    await tier.stop_node("ghost")
                with pytest.raises(ClusterError, match="no placed node"):
                    await tier.node_info("ghost")
                with pytest.raises(ClusterError, match="no placed node"):
                    tier.deploy_source("ghost", app=1)
                with pytest.raises(ClusterError, match="no placed node"):
                    tier.send_control("ghost", 1)
                with pytest.raises(ClusterError, match="no placed node"):
                    tier.terminate_node("ghost")

        run(scenario())

    def test_stop_node_forgets_the_placement_everywhere(self, kind):
        async def scenario():
            async with running_tier(kind) as (tier, observer, _kill):
                placed = await tier.deploy([NodeSpec("a", SINK), NodeSpec("b", SINK)])
                (child,) = tier.children.values()
                await tier.stop_node("a")
                assert list(tier.placed) == ["b"]
                assert list(child.placed) == ["b"]
                assert observer.down == [placed["a"].node_id]
                assert (await tier.node_info("b"))["running"] is True

        run(scenario())

    def test_death_downs_the_shard_once_per_orphan(self, kind):
        async def scenario():
            telemetry = Telemetry()
            async with running_tier(kind, telemetry=telemetry) as (tier, observer, kill):
                placed = await tier.deploy([NodeSpec("a", SINK), NodeSpec("b", SINK)])
                (child,) = tier.children.values()
                kill()
                ok = await wait_until(lambda: not child.alive, timeout=10.0)
                assert ok, "death never confirmed"
                assert tier.placed == {} and child.placed == {}
                assert sorted(map(str, observer.down)) == sorted(
                    str(p.node_id) for p in placed.values()
                )
                assert tier.deaths == 1
                # placement on a dead fleet fails instead of hanging
                with pytest.raises(ClusterError):
                    await tier.place(NodeSpec("c", SINK))
            placed_events = [
                e for e in telemetry.tracer.events() if e.event == EventType.NODE_PLACED
            ]
            assert [e.detail["name"] for e in placed_events] == ["a", "b"]

        run(scenario())

    def test_pin_to_a_child_that_is_not_live_is_refused(self, kind):
        async def scenario():
            async with running_tier(kind) as (tier, _, _kill):
                pinned = (
                    NodeSpec("x", SINK, pin="nope") if kind == "worker"
                    else NodeSpec("x", SINK, controller="nope")
                )
                with pytest.raises(ClusterError, match=f"pins {tier.child_kind}"):
                    await tier.place(pinned)
                # ...but a redeploy relaxes the pin rather than lose the node
                placed = await tier.place(pinned, redeploy=True)
                assert tier.nodes_redeployed == 1
                assert tier.placed["x"] is placed

        run(scenario())

    def test_a_second_registration_for_a_live_name_is_refused(self, kind):
        async def scenario():
            telemetry = Telemetry()
            async with running_tier(kind, telemetry=telemetry) as (tier, _, _kill):
                (child,) = tier.children.values()
                owner = child.chan
                reader, writer = await asyncio.open_connection("127.0.0.1", tier.port)
                intruder = ControlChannel(reader, writer)
                await intruder.send(MsgType.W_REGISTER, name=child.name, pid=child.pid)
                with pytest.raises((asyncio.IncompleteReadError, ConnectionError)):
                    await asyncio.wait_for(intruder.recv(), 10.0)
                intruder.close()
                assert child.chan is owner and child.alive
                await tier.place(NodeSpec("still-served", SINK))
            faults = [
                e.detail for e in telemetry.tracer.events()
                if e.event == EventType.CONTROL_FAULT
            ]
            assert [f["stage"] for f in faults] == ["register"]
            assert faults[0]["child"] == child.name

        run(scenario())


@pytest.mark.parametrize("kind", TIERS)
def test_stale_incarnation_cannot_register_for_a_newer_one(kind):
    """A registration whose pid is not the supervised process's pid is
    refused on either tier; the right pid then completes the waiter."""

    async def scenario():
        observer = RecordingObserver()
        tier = (
            ClusterController(observer, ClusterConfig(workers=0)) if kind == "worker"
            else RootController(observer)
        )
        await tier.start()
        try:
            state = tier.state_class(name="x")
            state.process = FakeProc(pid=4242)
            tier.children["x"] = state
            waiter = asyncio.get_running_loop().create_future()
            tier._register_waiters["x"] = waiter

            reader, writer = await asyncio.open_connection("127.0.0.1", tier.port)
            stale = ControlChannel(reader, writer)
            await stale.send(MsgType.W_REGISTER, name="x", pid=999)
            with pytest.raises((asyncio.IncompleteReadError, ConnectionError)):
                await asyncio.wait_for(stale.recv(), 10.0)
            assert not waiter.done() and state.chan is None
            stale.close()

            reader, writer = await asyncio.open_connection("127.0.0.1", tier.port)
            fresh = ControlChannel(reader, writer)
            await fresh.send(MsgType.W_REGISTER, name="x", pid=4242)
            assert await asyncio.wait_for(waiter, 10.0) is state
            assert state.pid == 4242
            fresh.close()
        finally:
            await tier.stop()

    run(scenario())
