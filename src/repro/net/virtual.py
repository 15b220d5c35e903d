"""Virtualized nodes: many full iOverlay engines in one process.

The paper's engine "supports virtualized nodes, i.e., more than one
iOverlay node per physical host".  A :class:`VirtualHost` multiplexes N
complete :class:`~repro.net.engine.AsyncioEngine` instances — each with
its own algorithm, switch, buffers, telemetry and TCP server — on one
asyncio event loop.  Traffic between two co-hosted nodes never touches a
socket: the host's :class:`LoopbackResolver` short-circuits the dial
into a pair of in-process :class:`LoopbackEndpoint` channels that move
:class:`~repro.core.message.Message` objects **by reference** (no
header serialization, no payload copies).  Peers outside the host are
reached through the ordinary socket path, so a virtual host drops into
a physical overlay transparently.

Loopback endpoints speak the push surface every data link speaks
(``attach`` an end that is pushed ``on_frames`` / ``on_lost``;
``send_message`` + ``flush`` with ``on_writable``; ``pause_reading`` /
``resume_reading``; ``close``), and failure semantics mirror sockets:
closing either side hands the remote end ``on_lost`` and fails later
writes with ``ConnectionError``, driving the exact ``_peer_failed``
teardown a dead socket would.  Dialing a co-hosted node that is not
running raises ``ConnectionRefusedError`` like a closed port.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import replace
from typing import TYPE_CHECKING, Any, Iterable

from repro.core.algorithm import Algorithm
from repro.core.ids import NodeId
from repro.core.message import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.engine import AsyncioEngine, NetEngineConfig

#: default in-flight window (messages) per loopback direction — the
#: analog of a socket's send buffer, sized like the engines' buffers.
DEFAULT_WINDOW = 64


class _LoopbackPipe:
    """One direction of a loopback connection: a bounded message window.

    A push schedules one delivery, which hands everything queued by then
    to the receiving end in one ``on_frames`` and reopens the window; a
    sender that found the window full is woken by that take.
    """

    __slots__ = ("capacity", "items", "closed", "paused", "receiver", "sender",
                 "blocked", "loop", "_due")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.items: deque[Message] = deque()
        self.closed = self.paused = self.blocked = self._due = False
        self.receiver: Any = None  # the end items are pushed to
        self.sender: Any = None  # the end woken when a full window reopens
        self.loop: Any = None  # the receiving end's, once attached

    def send(self, msg: Message) -> None:
        if self.closed:
            raise ConnectionResetError("loopback connection closed")
        self.items.append(msg)
        if not self._due:  # one delivery per burst: skip the call once it is due
            self.schedule()

    def schedule(self) -> None:
        if not self._due and not self.paused and self.receiver is not None:
            self._due = True
            self.loop.call_soon(self._deliver)

    def _deliver(self) -> None:
        """Hand everything in flight over at once; the window reopens."""
        self._due = False
        if self.items and not (self.closed or self.paused):
            items = list(self.items)
            self.items.clear()
            if self.blocked:
                self.blocked = False
                self.sender.on_writable()
            self.receiver.on_frames(items)


class LoopbackEndpoint:
    """One side of a full-duplex in-process connection.

    The link's endpoint on its engine: the engine's pump hands objects
    over through ``send_message`` (dispatched to by
    :func:`repro.net.framing.write_batch`) and ``flush``, and the
    attached end is pushed every delivery of the other side.
    """

    __slots__ = ("_rx", "_tx")

    #: transport label surfaced by the engine's ``transport_mix()``
    transport_kind = "loopback"

    def __init__(self, rx: _LoopbackPipe, tx: _LoopbackPipe) -> None:
        self._rx = rx
        self._tx = tx

    def attach(self, end: Any) -> None:
        self._rx.receiver = self._tx.sender = end
        self._rx.loop = asyncio.get_running_loop()
        if self._tx.closed:  # the other side is already gone
            _lost(end, self._rx.loop)
        self._rx.schedule()  # what the other side sent before we attached

    def pause_reading(self) -> None:
        self._rx.paused = True

    def resume_reading(self) -> None:
        self._rx.paused = False
        self._rx.schedule()

    def send_message(self, msg: Message) -> None:
        self._tx.send(msg)

    def flush(self) -> bool:
        """False while the in-flight window is full: the peer's take wakes us."""
        tx = self._tx
        if tx.closed:
            raise ConnectionResetError("loopback connection closed")
        tx.blocked = len(tx.items) >= tx.capacity
        return not tx.blocked

    def close(self) -> list[Message]:
        """Tear down the whole connection, like closing a TCP socket.

        Returns what was sent to this side and never delivered; the other
        side's end is told the link is lost.
        """
        rx, tx = self._rx, self._tx
        unread = list(rx.items)
        rx.items.clear()
        remote, rx.receiver, tx.sender = tx.receiver, None, None
        rx.closed = tx.closed = True
        if remote is not None:
            _lost(remote, tx.loop)
        return unread


def _lost(end: Any, loop: asyncio.AbstractEventLoop) -> None:
    """Tell ``end`` its link is gone: the EOF a socket reader would see."""
    loop.call_soon(end.on_lost, asyncio.IncompleteReadError(partial=b"", expected=1))


def loopback_pair(window: int = DEFAULT_WINDOW) -> tuple[LoopbackEndpoint, LoopbackEndpoint]:
    """A connected pair of full-duplex in-process endpoints."""
    a_to_b = _LoopbackPipe(window)
    b_to_a = _LoopbackPipe(window)
    return (
        LoopbackEndpoint(rx=b_to_a, tx=a_to_b),
        LoopbackEndpoint(rx=a_to_b, tx=b_to_a),
    )


class LoopbackResolver:
    """Maps co-hosted node identities to their engines for in-process dials.

    Installed on each co-hosted engine's config; the engine's dial path
    consults it first and falls back to real sockets when the
    destination is not on this host.
    """

    def __init__(self, window: int = DEFAULT_WINDOW) -> None:
        self._window = window
        self._engines: dict[NodeId, "AsyncioEngine"] = {}
        #: loopback connections brokered (the scaling experiment's proof
        #: that co-hosted traffic is not secretly using sockets)
        self.dials = 0

    def register(self, engine: "AsyncioEngine") -> None:
        self._engines[engine.node_id] = engine

    def unregister(self, node_id: NodeId) -> None:
        self._engines.pop(node_id, None)

    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self._engines

    def dial(self, src: NodeId, dest: NodeId) -> LoopbackEndpoint | None:
        """Connect ``src`` to co-hosted ``dest`` in one synchronous step.

        Returns the dialer's endpoint, or ``None``
        when ``dest`` is not on this host (the caller then dials a real
        socket).  The HELLO identification round trip is unnecessary:
        both identities are known, so the remote engine admits the
        inbound transport directly.
        """
        engine = self._engines.get(dest)
        if engine is None:
            return None
        if not engine.running:
            raise ConnectionRefusedError(f"co-hosted node {dest} is not running")
        ours, theirs = loopback_pair(self._window)
        self.dials += 1
        engine.accept_transport(src, theirs)
        return ours


class VirtualHost:
    """N full iOverlay nodes multiplexed on one asyncio event loop.

    Every node is a complete :class:`AsyncioEngine` — own algorithm,
    switch, bounded buffers, observer link and (real) server socket for
    off-host peers — but connections between co-hosted nodes are
    zero-copy loopback channels.  Usage::

        host = VirtualHost(observer_addr=obs.addr)
        engines = [host.add_node(MyAlgorithm()) for _ in range(200)]
        await host.start()
        ...
        await host.stop()
    """

    def __init__(
        self,
        observer_addr: NodeId | None = None,
        window: int = DEFAULT_WINDOW,
        ip: str = "127.0.0.1",
    ) -> None:
        self.resolver = LoopbackResolver(window)
        self._observer_addr = observer_addr
        self._ip = ip
        self._nodes: list["AsyncioEngine"] = []

    @property
    def nodes(self) -> list["AsyncioEngine"]:
        """The hosted engines, in add order."""
        return list(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def add_node(
        self,
        algorithm: Algorithm,
        port: int = 0,
        config: "NetEngineConfig | None" = None,
    ) -> "AsyncioEngine":
        """Create (but do not start) one co-hosted node.

        ``port=0`` lets each node's server pick an ephemeral port; the
        node's final identity is known after :meth:`start`.  A provided
        ``config`` is copied with the host's loopback resolver installed.
        """
        from repro.net.engine import AsyncioEngine, NetEngineConfig

        config = replace(config, loopback=self.resolver) if config is not None \
            else NetEngineConfig(loopback=self.resolver)
        engine = AsyncioEngine(
            NodeId(self._ip, port), algorithm,
            observer_addr=self._observer_addr, config=config,
        )
        self._nodes.append(engine)
        return engine

    async def start(self) -> None:
        """Start every node and publish their final identities for loopback."""
        for engine in self._nodes:
            if not engine.running:
                await engine.start()
                self.resolver.register(engine)

    async def start_node(self, engine: "AsyncioEngine") -> None:
        """Start one previously added node (dynamic placement path).

        The cluster worker places nodes one at a time while the host is
        already live: the node's identity is final (port 0 resolved)
        once this returns, and co-hosted dials to it go over loopback.
        """
        await engine.start()
        self.resolver.register(engine)

    async def stop_node(self, engine: "AsyncioEngine") -> None:
        """Gracefully stop and unlist one co-hosted node."""
        self.resolver.unregister(engine.node_id)
        if engine in self._nodes:
            self._nodes.remove(engine)
        await engine.stop()

    async def stop(self) -> None:
        """Stop every node (reverse add order)."""
        for engine in reversed(self._nodes):
            self.resolver.unregister(engine.node_id)
            await engine.stop()

    async def connect_chain(self, engines: Iterable["AsyncioEngine"] | None = None) -> None:
        """Connect consecutive nodes into a forwarding chain (fig5 shape)."""
        chain = list(engines) if engines is not None else self._nodes
        for left, right in zip(chain, chain[1:]):
            await left.connect(right.node_id)
