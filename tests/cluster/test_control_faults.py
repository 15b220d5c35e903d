"""Control frames are outside input: bad ones never kill a serve loop quietly.

Regressions for the silent failures of the control plane — an
undecodable payload used to kill a host's serve task (the worker kept
heartbeating but answered nothing until a request timed out), an
undecodable frame used to end a supervisor's accept handler without the
death path, finished supervisor tasks piled up forever, and a failed
``C_WELCOME`` send was an exception nobody retrieved — followed by a
fuzz over both shared halves: reject or error-reply, never an unhandled
exception, never a stuck ``_pending`` future.
"""

import asyncio
import gc
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.child import ChildControllerHost
from repro.cluster.controller import ClusterConfig, ClusterController
from repro.cluster.federation import RootConfig, RootController
from repro.cluster.protocol import REPLIES, control_frame
from repro.cluster.scenarios import SINK, wait_until
from repro.cluster.spec import NodeSpec
from repro.cluster.supervise import RespawnPolicy
from repro.cluster.worker import WorkerHost
from repro.core.ids import NodeId
from repro.core.message import Message
from repro.core.msgtypes import MsgType
from repro.errors import ClusterError
from repro.net.virtual import VirtualHost
from repro.telemetry import Telemetry
from repro.telemetry.tracing import EventType

from tests.cluster.helpers import (
    UNALIGNED,
    FakeChild,
    FakeWriter,
    RecordingChan,
    RecordingObserver,
    fed_reader,
    raw_frame,
    start_fleet,
    stop_fleet,
)


def run(coro):
    return asyncio.run(coro)


def faults(telemetry: Telemetry) -> list[dict]:
    return [
        e.detail for e in telemetry.tracer.events()
        if e.event == EventType.CONTROL_FAULT
    ]


class TestUndecodablePayload:
    def test_worker_answers_with_an_error_and_keeps_serving(self):
        async def scenario():
            observer, controller = await start_fleet(workers=1)
            try:
                state = controller.workers["w0"]
                reply: asyncio.Future = asyncio.get_running_loop().create_future()
                controller._pending[7777] = reply
                state.chan._writer.write(
                    raw_frame(MsgType.W_NODE_INFO, b"\xff not json", seq=7777)
                )
                answer = (await asyncio.wait_for(reply, 10.0)).fields()
                assert "CodecError" in answer["error"]
                # same channel, next request: the serve loop is still there
                placed = await controller.place(NodeSpec("sink", SINK))
                assert (await controller.node_info("sink"))["node"] == str(placed.node_id)
                assert state.alive and controller.worker_deaths == 0
            finally:
                await stop_fleet(observer, controller)

        run(scenario())

    def test_supervisor_drops_a_garbage_heartbeat_and_keeps_the_child(self):
        async def scenario():
            telemetry = Telemetry()
            root = RootController(RecordingObserver(), RootConfig(telemetry=telemetry))
            await root.start()
            try:
                child = FakeChild("c0", root.addr)
                await child.join()
                state = await root.wait_ready("c0", timeout=10.0)
                child.chan._writer.write(raw_frame(MsgType.W_HEARTBEAT, b"{]"))
                await child.chan.send(MsgType.W_HEARTBEAT, nodes="many")
                await child.chan.send(MsgType.W_HEARTBEAT, nodes=3, workers_alive=1)
                ok = await wait_until(lambda: state.node_count == 3, timeout=10.0)
                assert ok and state.alive
                assert [f["stage"] for f in faults(telemetry)] == ["frame", "frame"]
            finally:
                await root.stop()

        run(scenario())

    def test_a_garbage_reply_fails_the_request_not_the_caller(self):
        async def scenario():
            root = RootController(RecordingObserver())
            await root.start()
            try:
                child = FakeChild("c0", root.addr)
                await child.join()
                state = await root.wait_ready("c0", timeout=10.0)
                await child.hands_off()
                request = asyncio.ensure_future(root.place(NodeSpec("x", SINK)))
                asked = await asyncio.wait_for(child.chan.recv(), 10.0)
                child.chan._writer.write(
                    raw_frame(MsgType.W_SPAWNED, b"\x00\x01", seq=asked.seq)
                )
                with pytest.raises(ClusterError, match="bad reply"):
                    await request
                assert not root._pending and "x" not in root.placed and state.alive
            finally:
                await root.stop()

        run(scenario())


class TestUndecodableFrame:
    def test_worker_stops_at_once_and_the_controller_sees_the_death(self):
        async def scenario():
            telemetry = Telemetry()
            observer, controller = await start_fleet(
                workers=1, telemetry=telemetry, heartbeat_timeout=120.0
            )
            try:
                state = controller.workers["w0"]
                state.chan._writer.write(UNALIGNED)
                # no heartbeat sweep can fire within the test: the worker
                # itself must have given up on the unaligned stream
                ok = await wait_until(lambda: not state.alive, timeout=15.0)
                assert ok, "worker kept running on an unaligned control stream"
                assert await asyncio.wait_for(state.process.wait(), 10.0) == 0
                assert controller.worker_deaths == 1
            finally:
                await stop_fleet(observer, controller)

        run(scenario())

    def test_supervisor_takes_the_death_path_at_once(self):
        async def scenario():
            telemetry = Telemetry()
            observer = RecordingObserver()
            root = RootController(observer, RootConfig(
                telemetry=telemetry, heartbeat_timeout=120.0))
            await root.start()
            try:
                child = FakeChild("c0", root.addr)
                await child.join()
                state = await root.wait_ready("c0", timeout=10.0)
                placed = await root.place(NodeSpec("x", SINK))
                child.chan._writer.write(UNALIGNED)
                ok = await wait_until(lambda: not state.alive, timeout=10.0)
                assert ok, "accept handler died without the death path"
                assert root.placed == {} and observer.down == [placed.node_id]
                dead = [
                    e.detail for e in telemetry.tracer.events()
                    if e.event == EventType.CONTROLLER_DEAD
                ]
                assert [d["reason"] for d in dead] == ["bad-frame"]
            finally:
                await root.stop()

        run(scenario())

    @pytest.mark.parametrize("first", [
        UNALIGNED,
        raw_frame(MsgType.W_REGISTER, b"not json"),
        raw_frame(MsgType.W_HEARTBEAT, b"{}"),
        control_frame(MsgType.W_REGISTER, name="c9", pid="soon").pack(),
        control_frame(MsgType.W_REGISTER, name="c9", pid=1, capacity="big").pack(),
    ], ids=["unaligned", "garbage-payload", "wrong-verb", "pid-type", "field-type"])
    def test_a_bad_first_frame_closes_the_channel(self, first):
        async def scenario():
            telemetry = Telemetry()
            root = RootController(RecordingObserver(), RootConfig(telemetry=telemetry))
            await root.start()
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", root.port)
                writer.write(first)
                # the root hangs up by decision, with a trace; before,
                # the handler died of an exception nobody caught
                assert await asyncio.wait_for(reader.read(), 10.0) == b""
                writer.close()
                assert root.controllers == {}
                assert [f["stage"] for f in faults(telemetry)] == ["register"]
            finally:
                await root.stop()

        run(scenario())


class TestOneTaskOwner:
    def test_finished_supervisor_tasks_are_pruned(self):
        async def scenario():
            observer, controller = await start_fleet(
                workers=1, respawn=RespawnPolicy(min_uptime=0.0)
            )
            try:
                for _ in range(3):
                    controller.workers["w0"].process.kill()
                    ok = await wait_until(
                        lambda: controller.workers["w0"].alive
                        and controller.workers["w0"].process.returncode is None,
                        timeout=30.0,
                    )
                    assert ok, "respawn never completed"
                # the sweep, and the reaper of the one live incarnation
                ok = await wait_until(lambda: len(controller._tasks) == 2, timeout=5.0)
                assert ok, f"{len(controller._tasks)} tasks held after 3 respawns"
            finally:
                await stop_fleet(observer, controller)

        run(scenario())

    def test_a_failed_welcome_send_is_observed(self):
        """The root used to fire the C_WELCOME send into a task nobody
        awaited; now a welcome that cannot be sent refuses the join."""

        async def scenario():
            unretrieved = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: unretrieved.append(context)
            )
            telemetry = Telemetry()
            root = RootController(RecordingObserver(), RootConfig(telemetry=telemetry))
            await root.start()
            try:
                join = control_frame(MsgType.W_REGISTER, name="c0", pid=1, workers=1)
                writer = FakeWriter(fail=True)
                await root._accept(fed_reader(join.pack()), writer)
                assert writer.closed and "c0" not in root.controllers
                (fault,) = faults(telemetry)
                assert fault["stage"] == "register" and fault["child"] == "c0"
                assert "ConnectionResetError" in fault["error"]
            finally:
                await root.stop()
            gc.collect()
            await asyncio.sleep(0)
            assert unretrieved == []

        run(scenario())

    def test_an_unexpected_task_failure_is_reported_not_lost(self):
        async def scenario():
            reported = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: reported.append(context)
            )
            telemetry = Telemetry()
            controller = ClusterController(
                RecordingObserver(), ClusterConfig(workers=0, telemetry=telemetry))

            async def boom():
                raise RuntimeError("sweep blew up")

            controller._tasks.launch(boom(), "sweep")
            await asyncio.sleep(0.01)
            assert len(controller._tasks) == 0
            assert [c["exception"].args for c in reported] == [("sweep blew up",)]
            (fault,) = faults(telemetry)
            assert fault["stage"] == "task" and fault["task"] == "sweep"

        run(scenario())


# ----------------------------------------------------------------------- fuzz

VERBS = st.one_of(
    st.sampled_from([
        MsgType.W_REGISTER, MsgType.W_SPAWN, MsgType.W_SPAWNED,
        MsgType.W_HEARTBEAT, MsgType.W_STOP_NODE, MsgType.W_NODE_INFO,
        MsgType.W_NODE_INFO_REPLY, MsgType.C_WELCOME, MsgType.C_EVENT,
    ]),
    # W_SHUTDOWN is not a request: it ends the host, by design
    st.integers(min_value=0, max_value=2000).filter(
        lambda type_: type_ != MsgType.W_SHUTDOWN),
)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 5), st.floats(allow_nan=False),
    st.text(max_size=8), st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)
FIELD_NAMES = st.sampled_from([
    "name", "pid", "algorithm", "kwargs", "weight", "pin", "node", "worker",
    "nodes", "rss_kb", "loop_lag_ms", "workers_alive", "workers", "capacity",
    "event", "proxy", "error", "ok",
])
PAYLOADS = st.one_of(
    st.binary(max_size=40),
    st.dictionaries(FIELD_NAMES, SCALARS, max_size=6).map(
        lambda fields: json.dumps(fields).encode()),
    SCALARS.map(lambda value: json.dumps(value).encode()),
)
FRAMES = st.builds(raw_frame, VERBS, PAYLOADS, st.integers(0, 5))
FUZZ = settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _tier(kind: str):
    if kind == "worker":
        return ClusterController(RecordingObserver(), ClusterConfig(workers=0))
    return RootController(RecordingObserver())


@pytest.mark.parametrize("kind", ["worker", "controller"])
class TestSupervisorHalfFuzz:
    @FUZZ
    @given(frames=st.lists(FRAMES, max_size=6))
    def test_dispatch_never_raises_and_never_strands_a_request(self, kind, frames):
        async def scenario():
            tier = _tier(kind)
            tier.request_timeout = 0.05
            state = tier.state_class(name="c0", alive=True, chan=RecordingChan())
            tier.children["c0"] = state
            request = asyncio.ensure_future(tier.place(NodeSpec("x", SINK, pin=None)))
            if kind == "controller":
                state.ready = True
            await asyncio.sleep(0)
            for frame in frames:
                tier._dispatch(state, Message.unpack(frame))
            try:
                await request
            except ClusterError:
                pass
            assert not tier._pending
            assert set(tier.placed) <= {"x"}

        run(scenario())

    @FUZZ
    @given(stream=st.lists(st.one_of(FRAMES, st.binary(max_size=30)), max_size=4))
    def test_accept_survives_any_byte_stream(self, kind, stream):
        async def scenario():
            tier = _tier(kind)
            tier._running = True
            writer = FakeWriter()
            await tier._accept(fed_reader(b"".join(stream)), writer)
            assert all(not st.alive for st in tier.children.values())

        run(scenario())


def _host(kind: str):
    addr = NodeId("127.0.0.1", 1)
    if kind == "worker":
        host = WorkerHost("w0", addr, addr)
        host.host = VirtualHost(observer_addr=addr)
    else:
        host = ChildControllerHost("c0", addr, ClusterConfig(workers=0))
        host.controller = ClusterController(RecordingObserver(), host.config)
    host._chan = RecordingChan()
    host._running = True
    return host


@pytest.mark.parametrize("kind", ["worker", "controller"])
class TestHostHalfFuzz:
    @FUZZ
    @given(frames=st.lists(FRAMES, min_size=1, max_size=6))
    def test_every_request_gets_exactly_one_reply_on_its_seq(self, kind, frames):
        async def scenario():
            host = _host(kind)
            requests = []
            for frame in frames:
                msg = Message.unpack(frame)
                if msg.type in host._verbs:
                    requests.append(msg.seq)
                await host._handle(msg)
            replies = host._chan.sent
            assert [r.seq for r in replies] == requests
            assert all(r.type in REPLIES for r in replies)
            # nothing here names a real algorithm, so each one is an error
            assert all("error" in r.fields() for r in replies)
            assert host._running

        run(scenario())
