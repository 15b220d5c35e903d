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

The host is also the in-process fleet a
:class:`~repro.sim.failure.FailureSchedule` replays on: nodes carry
names, and the fault verbs (``kill_node``, ``leave_node``,
``join_node``, ``cut_link``, ``stall_link``, ``kill_source``) fire on
the loop clock through ``schedule.arm(host)``, as they do on the
simulator's :class:`~repro.sim.network.SimNetwork`.  Given a
:class:`~repro.net.chaos.ChaosController`, the host skips loopback and
every link runs over a localhost socket through the chaos wrapper, so
link faults can be injected; without one, the link verbs raise
:class:`~repro.errors.ConfigurationError`, and ``arm`` refuses a
schedule holding them up front.
"""

from __future__ import annotations

import asyncio
import itertools
from collections import deque
from dataclasses import replace
from typing import Any, Callable, Iterable

from repro.core.algorithm import Algorithm
from repro.core.ids import NodeId
from repro.core.message import Message
from repro.errors import ConfigurationError, UnknownNodeError
from repro.net.chaos import ChaosController
from repro.net.engine import AsyncioEngine, NetEngineConfig
from repro.net.tasks import TaskSet
from repro.sim.failure import LEAVE_GRACE, NodeFactory, announce_leave

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

    def __init__(self) -> None:
        self._engines: dict[NodeId, AsyncioEngine] = {}
        #: loopback connections brokered (the scaling experiment's proof
        #: that co-hosted traffic is not secretly using sockets)
        self.dials = 0

    def register(self, engine: AsyncioEngine) -> None:
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
        ours, theirs = loopback_pair()
        self.dials += 1
        engine.accept_transport(src, theirs)
        return ours


class VirtualHost:
    """N full iOverlay nodes multiplexed on one asyncio event loop.

    Every node is a complete :class:`AsyncioEngine` — own algorithm,
    switch, bounded buffers, observer link and (real) server socket for
    off-host peers — but connections between co-hosted nodes are
    zero-copy loopback channels.  Nodes are named (``n0``, ``n1`` ...
    unless given a name) and found by name or identity.  Usage::

        host = VirtualHost(observer_addr=obs.addr)
        engines = [host.add_node(MyAlgorithm()) for _ in range(200)]
        await host.start()
        ...
        await host.stop()

    With a :class:`~repro.net.chaos.ChaosController` no node is reachable
    over loopback: every link is a localhost socket through the chaos
    wrapper, so the controller's faults apply to it.
    """

    #: each engine carries its own telemetry; the host traces no churn
    telemetry = None

    def __init__(
        self,
        observer_addr: NodeId | None = None,
        ip: str = "127.0.0.1",
        chaos: ChaosController | None = None,
    ) -> None:
        self.resolver = LoopbackResolver()
        self.chaos = chaos
        self._observer_addr = observer_addr
        self._ip = ip
        #: name -> engine, in add order
        self._engines: dict[str, AsyncioEngine] = {}
        self._serial = itertools.count()  # default names: n0, n1 ... never reused
        self._handles: list[asyncio.TimerHandle] = []
        #: schedule actions in flight (kills, joins, graceful leaves)
        self._tasks = TaskSet(type(self).__name__)

    def engines(self) -> list[AsyncioEngine]:
        """The hosted engines, in add order."""
        return list(self._engines.values())

    def __len__(self) -> int:
        return len(self._engines)

    def add_node(
        self,
        algorithm: Algorithm,
        name: str | None = None,
        config: NetEngineConfig | None = None,
    ) -> AsyncioEngine:
        """Create (but do not start) one co-hosted node named ``name``.

        Its server picks an ephemeral port, so the node's final identity
        is known after :meth:`start`.  A provided ``config`` is copied
        with the host's loopback resolver (or chaos controller) installed.
        """
        if name is None:
            name = f"n{next(self._serial)}"
        if name in self._engines:
            raise ConfigurationError(f"node {name!r} already hosted here")
        link = {"loopback": self.resolver} if self.chaos is None else {"chaos": self.chaos}
        engine = AsyncioEngine(
            NodeId(self._ip, 0), algorithm, observer_addr=self._observer_addr,
            config=NetEngineConfig(**link) if config is None else replace(config, **link),
        )
        self._engines[name] = engine
        return engine

    def _name(self, node: NodeId | str) -> str:
        if isinstance(node, str):
            if node in self._engines:
                return node
        else:
            for name, engine in self._engines.items():
                if engine.node_id == node:
                    return name
        raise UnknownNodeError(f"no node {node!r} on this host")

    def engine(self, node: NodeId | str) -> AsyncioEngine:
        """The engine named ``node``, or carrying identity ``node``."""
        return self._engines[self._name(node)]

    def __getitem__(self, node: NodeId | str) -> NodeId:
        return node if isinstance(node, NodeId) else self.engine(node).node_id

    async def start(self) -> None:
        """Start every node and publish their final identities for loopback."""
        for engine in self.engines():
            if not engine.running:
                await self.start_node(engine)

    async def start_node(self, engine: AsyncioEngine) -> None:
        """Start one previously added node (dynamic placement path).

        The cluster worker places nodes one at a time while the host is
        already live: the node's identity is final (port 0 resolved)
        once this returns, and co-hosted dials to it go over loopback.
        """
        await engine.start()
        if self.chaos is None:
            self.resolver.register(engine)

    async def stop_node(self, node: NodeId | str) -> None:
        """Gracefully stop and unlist one co-hosted node."""
        engine = self._engines.pop(self._name(node))
        self.resolver.unregister(engine.node_id)
        await engine.stop()

    async def stop(self) -> None:
        """Stop every node (reverse add order), once the actions in flight end."""
        for handle in self._handles:
            handle.cancel()
        self._handles.clear()
        # Actions already in flight run to their end first.  Cancelled,
        # a join could strand a half-started engine (asyncio leaves a
        # server listening when ``start_server`` is cancelled); left
        # running, it would add an engine after the loop below.
        await self._tasks.settle()
        for engine in reversed(self.engines()):
            self.resolver.unregister(engine.node_id)
            await engine.stop()

    async def connect_chain(self, engines: Iterable[AsyncioEngine] | None = None) -> None:
        """Connect consecutive nodes into a forwarding chain (fig5 shape)."""
        chain = list(engines) if engines is not None else self.engines()
        for left, right in zip(chain, chain[1:]):
            await left.connect(right.node_id)

    # ------------------------------------------------------------- fault verbs
    # The verbs a FailureSchedule replays (repro.sim.failure); schedule
    # times are loop seconds after the call, so after ``arm()``.

    def schedule(self, at: float, callback: Callable[..., None], *args) -> None:
        self._handles.append(asyncio.get_running_loop().call_later(at, callback, *args))

    def kill_node(self, node: NodeId | str) -> None:
        self._tasks.launch(self.engine(node).stop(), f"kill {node}")

    def leave_node(self, node: NodeId | str) -> None:
        """Announce departure (when the algorithm can), then stop."""
        if announce_leave(self.engine(node).algorithm):
            self.schedule(LEAVE_GRACE, self.kill_node, node)
        else:
            self.kill_node(node)

    def join_node(self, name: str, node_factory: NodeFactory) -> None:
        self._tasks.launch(node_factory(self, name), f"join {name}")

    def _faults(self) -> ChaosController:
        if self.chaos is None:
            raise ConfigurationError("link faults need VirtualHost(chaos=ChaosController())")
        return self.chaos

    def cut_link(self, src: NodeId | str, dst: NodeId | str) -> None:
        self._faults().cut_link(self[src], self[dst])

    def stall_link(self, src: NodeId | str, dst: NodeId | str) -> None:
        self._faults().stall_link(self[src], self[dst])

    def kill_source(self, node: NodeId | str, app: int) -> None:
        self.engine(node).stop_source(app)
