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

Loopback endpoints speak the endpoint surface the engine's IO loops use
on every link (``recv_message`` + ``drain_frames`` / ``send_message`` +
``drain`` / ``close``), and failure semantics mirror sockets: closing
either side raises ``IncompleteReadError`` at the remote reader and
``ConnectionError`` at writers, driving the exact ``_peer_failed``
teardown a dead socket would.  Dialing a co-hosted node that is not
running raises ``ConnectionRefusedError`` like a closed port.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import replace
from typing import TYPE_CHECKING, Iterable

from repro.core.algorithm import Algorithm
from repro.core.ids import NodeId
from repro.core.message import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.engine import AsyncioEngine, NetEngineConfig

#: default in-flight window (messages) per loopback direction — the
#: analog of a socket's send buffer, sized like the engines' buffers.
DEFAULT_WINDOW = 64


class _LoopbackPipe:
    """One direction of a loopback connection: a bounded message FIFO."""

    __slots__ = ("capacity", "items", "closed", "_data", "_space")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.items: deque[Message] = deque()
        self.closed = False
        self._data = asyncio.Event()
        self._space = asyncio.Event()
        self._space.set()

    def send(self, msg: Message) -> None:
        if self.closed:
            raise ConnectionResetError("loopback connection closed")
        self.items.append(msg)
        self._data.set()
        if len(self.items) >= self.capacity:
            self._space.clear()

    async def drain(self) -> None:
        """Block while the in-flight window is full (socket back pressure)."""
        while len(self.items) >= self.capacity and not self.closed:
            self._space.clear()
            await self._space.wait()
        if self.closed:
            raise ConnectionResetError("loopback connection closed")

    async def recv(self) -> Message:
        while not self.items:
            if self.closed:
                # The same EOF the socket reader would see: lets the
                # engine's except-clause run its normal failure path.
                raise asyncio.IncompleteReadError(partial=b"", expected=1)
            self._data.clear()
            await self._data.wait()
        msg = self.items.popleft()
        if len(self.items) < self.capacity:
            self._space.set()
        return msg

    def take_all(self) -> list[Message]:
        """Everything in flight, oldest first; the window reopens."""
        items = list(self.items)
        self.items.clear()
        self._space.set()
        return items

    def close(self) -> None:
        self.closed = True
        self._data.set()
        self._space.set()


class LoopbackEndpoint:
    """One side of a full-duplex in-process connection.

    Serves as both the ``reader`` and the ``writer`` object in the
    engine's peer state: the receiver loop takes a burst with
    ``recv_message`` + ``drain_frames``, and
    :func:`repro.net.framing.write_batch` hands objects over through
    ``send_message``.
    """

    __slots__ = ("_rx", "_tx")

    #: transport label surfaced by the engine's ``transport_mix()``
    transport_kind = "loopback"

    def __init__(self, rx: _LoopbackPipe, tx: _LoopbackPipe) -> None:
        self._rx = rx
        self._tx = tx

    async def recv_message(self) -> Message:
        return await self._rx.recv()

    def drain_frames(self) -> list[Message]:
        """The rest of the burst ``recv_message`` woke up for."""
        return self._rx.take_all()

    def send_message(self, msg: Message) -> None:
        self._tx.send(msg)

    async def drain(self) -> None:
        await self._tx.drain()

    def close(self) -> None:
        """Tear down the whole connection, like closing a TCP socket."""
        self._rx.close()
        self._tx.close()

    def is_closing(self) -> bool:
        return self._tx.closed

    def at_eof(self) -> bool:
        return self._rx.closed and not self._rx.items


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

    def dial(self, src: NodeId, dest: NodeId) -> tuple[LoopbackEndpoint, LoopbackEndpoint] | None:
        """Connect ``src`` to co-hosted ``dest`` in one synchronous step.

        Returns the dialer's ``(reader, writer)`` endpoints, or ``None``
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
        engine.accept_transport(src, theirs, theirs)
        return ours, ours


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
