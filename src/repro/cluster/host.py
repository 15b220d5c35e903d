"""The child end of a control channel, written once.

Whatever a supervisor (:mod:`repro.cluster.supervise`) watches — a
worker process under its controller, a child controller under the
federation root — runs a :class:`ControlHost`: dial the supervisor,
register, answer its request verbs, heartbeat, drain on shutdown.  The
two hosts (:class:`~repro.cluster.worker.WorkerHost`,
:class:`~repro.cluster.child.ChildControllerHost`) supply what differs:
their registration fields, their gauges, the three request handlers
(``spawn`` / ``stop_node`` / ``node_info``), what to drain, and whether
requests are served in arrival order or concurrently.

Requests are outside input.  Whatever a handler raises — including a
payload that does not decode or a field of the wrong type — is answered
with an ``error`` reply on the request's ``seq`` and the host keeps
serving; a frame that does not decode at all leaves the stream
unaligned, so the host stops exactly as it does when the supervisor
disappears (the supervisor then reads the EOF and takes its ordinary
death path).
"""

from __future__ import annotations

import asyncio
import os
import resource
from typing import Any

from repro.cluster.protocol import ControlChannel
from repro.core.ids import NodeId
from repro.core.message import Message
from repro.core.msgtypes import MsgType
from repro.errors import CodecError
from repro.net.tasks import TaskSet
from repro.tools.signals import install_shutdown_handlers


class ControlHost:
    """One supervised process: control channel + whatever it hosts."""

    #: serve each request in its own task (a slow one must not stall the
    #: heartbeat stream or the requests behind it) instead of in arrival
    #: order on the serve loop itself
    concurrent_requests = False

    def __init__(self, name: str, supervisor_addr: NodeId | str,
                 heartbeat_interval: float) -> None:
        self.name = name
        self.supervisor_addr = NodeId.parse(supervisor_addr)
        self.heartbeat_interval = heartbeat_interval
        self._chan: ControlChannel | None = None
        self._tasks = TaskSet(f"{type(self).__name__} {name!r}")
        self._running = False
        #: set by a shutdown signal or by the first stop(): time to exit
        self.quit = asyncio.Event()
        #: set once the host has fully stopped
        self.stopped = asyncio.Event()
        self.heartbeats_sent = 0
        #: request verb -> (handler, reply verb)
        self._verbs = {
            MsgType.W_SPAWN: (self.spawn, MsgType.W_SPAWNED),
            MsgType.W_STOP_NODE: (self.stop_node, MsgType.W_NODE_INFO_REPLY),
            MsgType.W_NODE_INFO: (self.node_info, MsgType.W_NODE_INFO_REPLY),
        }

    # ------------------------------------------------------- what a host says

    async def start(self) -> None:
        """Boot: :meth:`_register` somewhere, :meth:`_serve_forever` last."""
        raise NotImplementedError

    async def drain(self) -> None:
        """Gracefully stop whatever this process hosts."""
        raise NotImplementedError

    def gauges(self) -> dict[str, Any]:
        """Host-specific fields of the next heartbeat."""
        raise NotImplementedError

    async def spawn(self, fields: dict) -> dict:
        raise NotImplementedError

    async def stop_node(self, fields: dict) -> dict:
        raise NotImplementedError

    async def node_info(self, fields: dict) -> dict:
        raise NotImplementedError

    # ------------------------------------------------------------------ lifecycle

    async def _register(self, **fields: Any) -> None:
        """Dial the supervisor and send the registration frame."""
        self._running = True
        reader, writer = await asyncio.open_connection(
            self.supervisor_addr.ip, self.supervisor_addr.port
        )
        self._chan = ControlChannel(reader, writer)
        await self._chan.send(
            MsgType.W_REGISTER, name=self.name, pid=os.getpid(), **fields
        )

    def _serve_forever(self) -> None:
        self._tasks.launch(self._serve(), "serve")
        self._tasks.launch(self._heartbeat_loop(), "heartbeat")

    async def stop(self) -> None:
        """Graceful drain, then teardown (idempotent)."""
        self.quit.set()
        if not self._running:
            return
        self._running = False
        await self.drain()
        if self._chan is not None:
            self._chan.close()
        self._tasks.teardown(keep=asyncio.current_task())
        self.stopped.set()

    # ------------------------------------------------------------- control channel

    async def _serve(self) -> None:
        assert self._chan is not None
        while self._running:
            try:
                msg = await self._chan.recv()
            except (asyncio.IncompleteReadError, ConnectionError, OSError, CodecError):
                # The supervisor is gone, or the stream is unaligned and
                # nothing after it can be trusted; a headless host is
                # useless either way.
                await self.stop()
                return
            if self.concurrent_requests:
                self._tasks.launch(self._handle(msg), f"request-{msg.seq}")
            else:
                await self._handle(msg)

    async def _handle(self, msg: Message) -> None:
        assert self._chan is not None
        if msg.type == MsgType.W_SHUTDOWN:
            await self.stop()
            return
        if msg.type not in self._verbs:
            return  # unknown verbs are ignored, like the observer does
        handler, reply_type = self._verbs[msg.type]
        try:
            reply = await handler(msg.fields())
        except Exception as exc:  # reported, never fatal to the host
            reply = {"error": f"{type(exc).__name__}: {exc}"}
        try:
            await self._chan.send(reply_type, seq=msg.seq, **reply)
        except (ConnectionError, OSError):
            pass  # the serve loop reads the EOF next

    async def _heartbeat_loop(self) -> None:
        assert self._chan is not None
        loop = asyncio.get_running_loop()
        while self._running:
            before = loop.time()
            await asyncio.sleep(self.heartbeat_interval)
            # How late the sleep woke up is a direct measure of event-loop
            # saturation in this process — the supervisor's gauges surface
            # it so overload shows up before throughput collapses.
            lag_ms = max(0.0, (loop.time() - before - self.heartbeat_interval) * 1000)
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            try:
                await self._chan.send(
                    MsgType.W_HEARTBEAT, name=self.name, rss_kb=rss_kb,
                    loop_lag_ms=round(lag_ms, 3), **self.gauges(),
                )
            except (ConnectionError, OSError):
                return
            self.heartbeats_sent += 1


def run_host(host: ControlHost) -> int:
    """The process entry scaffold: run ``host`` until signalled or stopped.

    SIGTERM / SIGINT, a ``W_SHUTDOWN`` and the supervisor disappearing
    all end in the same graceful :meth:`ControlHost.stop`.
    """

    async def amain() -> int:
        install_shutdown_handlers(host.quit)
        await host.start()
        await host.quit.wait()
        await host.stop()
        await host.stopped.wait()  # a stop() already draining elsewhere
        return 0

    try:
        return asyncio.run(amain())
    except KeyboardInterrupt:  # signal raced the handler installation
        return 0
