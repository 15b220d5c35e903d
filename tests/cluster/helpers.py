"""Shared plumbing for the cluster test suite: fleets, polling, teardown."""

from __future__ import annotations

import asyncio

from repro.cluster.controller import ClusterConfig, ClusterController
from repro.cluster.protocol import CONTROL_SENDER, ControlChannel, control_frame
from repro.cluster.scenarios import poll_info, wait_until  # noqa: F401 - re-exported
from repro.core.ids import CONTROL_APP, NodeId
from repro.core.message import Message
from repro.core.msgtypes import MsgType
from repro.net.observer_server import ObserverServer


async def start_fleet(
    workers: int = 2, poll_interval: float = 0.2, **config
) -> tuple[ObserverServer, ClusterController]:
    observer = ObserverServer(NodeId("127.0.0.1", 0), poll_interval=poll_interval)
    await observer.start()
    controller = ClusterController(
        observer, ClusterConfig(workers=workers, **config)
    )
    await controller.start()
    return observer, controller


async def stop_fleet(observer: ObserverServer, controller: ClusterController) -> None:
    await controller.stop()
    await observer.stop()


async def wait_all_alive(observer, placed, timeout: float = 30.0) -> None:
    """Block until every placed node's BOOT reached the observer.

    Observer control verbs are best-effort (unroutable destinations are
    silently dropped), so tests MUST wait for routes before sending any.
    """
    ok = await wait_until(
        lambda: all(p.node_id in observer.observer.alive for p in placed.values()),
        timeout=timeout,
    )
    assert ok, (
        f"only {len(observer.observer.alive)}/{len(placed)} placed nodes "
        f"booted at the observer within {timeout}s"
    )


class RecordingObserver:
    """An observer surface that counts ``mark_down`` calls.

    Wraps a real :class:`ObserverServer` when workers must attach to
    one (``addr`` and the control verbs pass through); standalone it is
    enough for a tier whose children are scripted.
    """

    def __init__(self, server: ObserverServer | None = None) -> None:
        self._server = server
        self.down: list[NodeId] = []

    @property
    def addr(self) -> NodeId:
        return self._server.addr if self._server else NodeId("127.0.0.1", 1)

    def mark_down(self, node: NodeId) -> None:
        self.down.append(node)
        if self._server is not None:
            self._server.observer.mark_down(node)

    # the rest of the surface a tier drives; these tests never route a verb
    def deploy_source(self, node: NodeId, app: int, payload_size: int) -> None:
        pass

    def send_control(self, node: NodeId, type_: int, **params) -> None:
        pass

    def terminate_node(self, node: NodeId) -> None:
        pass


class FakeProc:
    """A stand-in subprocess handle (already exited, nothing to reap)."""

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.returncode = 0

    async def wait(self) -> int:
        return self.returncode


class RecordingChan:
    """A channel that records what is sent on it and never answers."""

    def __init__(self) -> None:
        self.sent: list[Message] = []

    async def send(self, type_, seq=0, **fields) -> None:
        self.sent.append(control_frame(type_, seq=seq, **fields))

    def is_closing(self) -> bool:
        return False

    def close(self) -> None:
        pass


class FakeChild:
    """A scripted child controller: joins a root, answers its verbs.

    Speaks the child end of the control channel by hand — register,
    read the welcome, report ready, then answer ``W_SPAWN`` with made-up
    identities, ``W_STOP_NODE`` / ``W_NODE_INFO`` for what it spawned —
    so the root's tier logic runs without any real fleet behind it.
    """

    def __init__(self, name: str, root_addr: NodeId) -> None:
        self.name = name
        self.root_addr = root_addr
        self.chan: ControlChannel | None = None
        self.hosted: dict[str, str] = {}
        self._task: asyncio.Task | None = None

    async def join(self, pid: int = 0) -> None:
        reader, writer = await asyncio.open_connection(
            self.root_addr.ip, self.root_addr.port
        )
        self.chan = ControlChannel(reader, writer)
        await self.chan.send(
            MsgType.W_REGISTER, name=self.name, pid=pid, workers=1,
            capacity=0.0, weight=1.0,
        )
        welcome = await asyncio.wait_for(self.chan.recv(), 10.0)
        assert welcome.type == MsgType.C_WELCOME
        await self.chan.send(MsgType.C_EVENT, event="ready", proxy="")
        self._task = asyncio.ensure_future(self._serve())

    async def _serve(self) -> None:
        while True:
            try:
                msg = await self.chan.recv()
            except (asyncio.IncompleteReadError, ConnectionError, OSError):
                return
            fields = msg.fields()
            name = fields.get("name", "")
            if msg.type == MsgType.W_SPAWN:
                node = f"127.0.0.1:{5000 + len(self.hosted)}"
                self.hosted[name] = node
                await self.chan.send(
                    MsgType.W_SPAWNED, seq=msg.seq, name=name, node=node, worker="w0"
                )
            elif msg.type in (MsgType.W_STOP_NODE, MsgType.W_NODE_INFO):
                reply = (
                    {"ok": True, "running": True, "info": {}} if name in self.hosted
                    else {"error": f"no node {name!r} hosted here"}
                )
                if msg.type == MsgType.W_STOP_NODE:
                    self.hosted.pop(name, None)
                await self.chan.send(MsgType.W_NODE_INFO_REPLY, seq=msg.seq, **reply)
            elif msg.type == MsgType.W_SHUTDOWN:
                self.chan.close()
                return

    async def hands_off(self) -> None:
        """Stop answering: the test drives the channel itself from here."""
        self._task.cancel()
        await asyncio.gather(self._task, return_exceptions=True)

    def die(self) -> None:
        """Vanish without a goodbye: the root reads the EOF."""
        self.chan.close()
        if self._task is not None:
            self._task.cancel()


class FakeWriter:
    """The writer half of an in-memory stream: records, or fails, writes."""

    def __init__(self, fail: bool = False) -> None:
        self.fail = fail
        self.written = bytearray()
        self.closed = False

    def write(self, data: bytes) -> None:
        if self.fail:
            raise ConnectionResetError("peer went away")
        self.written += data

    async def drain(self) -> None:
        pass

    def close(self) -> None:
        self.closed = True

    def is_closing(self) -> bool:
        return self.closed


def fed_reader(data: bytes) -> asyncio.StreamReader:
    """A stream that yields ``data`` and then EOF."""
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


def raw_frame(type_: int, payload: bytes, seq: int = 0) -> bytes:
    """One control frame with an arbitrary (possibly garbage) payload."""
    return Message(type_, CONTROL_SENDER, CONTROL_APP, payload, seq=seq).pack()


#: a header declaring a payload far past the frame limit: what a reader
#: sees when the stream is no longer aligned on a frame boundary
UNALIGNED = b"\xff" * 64
