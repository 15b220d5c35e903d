"""The asyncio engine backend: EngineCore over real (or loopback) transports.

All switching semantics — control draining, the weighted-round-robin
switch, pending-forward retries, probe/bandwidth/status handling, source
pacing, telemetry — and the link table with its teardown live in
:class:`repro.core.engine_core.EngineCore`.  This module supplies the
Clock (monotonic time, asyncio tasks) and the Transport: TCP server/dial
machinery (one dial task per destination, attaching to the send queue
the core created at the first ``send()``), the two ends of every
persistent full-duplex peer connection as callbacks on its transport
(:class:`_Peer`), and the
resilience layer (:mod:`repro.net.resilience`): peer dials retry with
bounded, jittered exponential backoff; a watchdog walks every peer link
through the ``LIVE -> SUSPECT -> PROBING -> DEAD`` ladder so silently
stalled links are confirmed dead and torn down through the very same
``_peer_failed`` as loud socket errors; and the observer link is one
supervised :class:`~repro.net.observer_link.ObserverUplink` — a bounded
outbox buffers status/trace messages across observer reconnects
(drop-oldest on overflow, every drop counted).  Fault injection lives in
:mod:`repro.net.chaos`.

Co-hosted peers (see :mod:`repro.net.virtual`) skip sockets entirely:
when the config carries a loopback resolver, dials to nodes on the same
host return in-process channel endpoints that move :class:`Message`
objects by reference — the link ends never notice the difference
because every link, socket or not, pushes and takes whole bursts
through one endpoint surface (see the table in
``docs/architecture.md``).

Because asyncio is single-threaded, the paper's headline guarantee holds
natively: the algorithm runs without any thread-safe data structures.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field as dataclass_field
from functools import partial
from typing import TYPE_CHECKING, Any, Coroutine, Sequence

from repro.core.algorithm import Algorithm
from repro.core.bandwidth import BandwidthSpec
from repro.core.engine_core import EngineCore
from repro.core.ids import CONTROL_APP, NodeId
from repro.core.message import Message
from repro.core.msgtypes import MsgType
from repro.core.switch import ReceiverPort
from repro.net.framing import (  # noqa: F401 - read_/write_message: bench.trace wraps them here
    MAX_FRAME_PAYLOAD,
    StreamLink,
    expect_hello_fields,
    open_identified,
    read_message,
    write_batch,
    write_message,
)
from repro.net.observer_link import ObserverUplink
from repro.net.resilience import BackoffPolicy, LinkHealth, ResilienceConfig
from repro.telemetry import Telemetry
from repro.telemetry.tracing import EventType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.chaos import ChaosController
    from repro.net.virtual import LoopbackResolver


@dataclass
class NetEngineConfig:
    """Tunables of one asyncio engine."""

    buffer_capacity: int = 64
    report_interval: float = 1.0
    connect_timeout: float = 5.0
    bandwidth: BandwidthSpec = dataclass_field(default_factory=BandwidthSpec)
    #: opt-in telemetry (metrics + lifecycle tracing); live nodes own one
    #: instance each and the observer aggregates their snapshots.
    telemetry: Telemetry | None = None
    #: connection supervision: dial backoff/retry budget, the
    #: inactivity -> probe failure-detection ladder, observer-link
    #: durability.  The defaults keep historical behaviour except that
    #: failed dials now retry and a lost observer link reconnects.
    resilience: ResilienceConfig = dataclass_field(default_factory=ResilienceConfig)
    #: opt-in fault injection; every peer connection is wrapped through
    #: the controller's policies (see :mod:`repro.net.chaos`).
    chaos: "ChaosController | None" = None
    #: optional in-process dial shortcut for co-hosted virtual nodes
    #: (see :class:`repro.net.virtual.VirtualHost`); ``None`` means every
    #: peer is reached over a real socket.
    loopback: "LoopbackResolver | None" = None
    #: shared-memory ring capacity per link direction, in bytes; ``0``
    #: (the default) disables the co-machine fast path entirely.  When
    #: set, peer dials offer ring channels in the HELLO (accepted only
    #: when both sides carry the same boot cookie and have this enabled)
    #: and fall back to plain TCP otherwise; the cluster layer enables
    #: it for cross-worker links.  Ignored while chaos is installed —
    #: fault injection targets the socket layer.
    shm_ring_bytes: int = 0


# States of a link's sending end: IDLE (waiting for its send queue), BUSY
# (a run is due, running or waiting out the throttle), BLOCKED (the
# transport pushes back) or CLOSED.
_IDLE, _BUSY, _BLOCKED, _CLOSED = range(4)


class _Peer:
    """One attached transport to another overlay node, and both link ends.

    The paper runs a receiver and a sender thread per connection; here
    both are callbacks on the transport's push surface, as the
    simulator's ``_ReceiverEnd`` and ``_SenderLink`` are on a simulated
    link, so a node has the same few tasks whatever its link count:

    - the **receiving end** is pushed whole bursts (``on_frames``) and
      the end of the link (``on_lost``), and places them with the core's
      ``_place``.  What the port buffer cannot take yet it keeps in
      hand, with reading paused, until the buffer's ``on_space``; the
      receive throttle pauses it on a timer.  What it placed is switched
      right there when the engine loop is parked
      (:meth:`AsyncioEngine._land`).
    - the **sending end** is a pump, run when the pass that gave its idle
      send queue a message ends (:meth:`AsyncioEngine._flush_later`),
      when the transport takes more after pushing back (``on_writable``),
      and by its throttle timer; the core's ``_sent`` books each run.
      Only an idle end listens to its send queue, so a put into a busy
      one calls nothing.

    ``writer`` is the link endpoint — a :class:`StreamLink` over TCP, a
    loopback or a shm endpoint, or a chaos wrapper around the first.
    A swapped transport (the simultaneous-connect tie-break) gets a fresh
    ``_Peer`` over the same port and link; the old one's late callbacks
    find it gone from ``_peers``.
    """

    __slots__ = ("engine", "node", "writer", "port", "out", "loop", "last_recv_at",
                 "health", "probe_deadline", "held", "reserved", "paused", "state", "unsent")

    def __init__(self, engine: "AsyncioEngine", node: NodeId, writer: Any,
                 port: ReceiverPort) -> None:
        self.engine, self.node, self.writer, self.port = engine, node, writer, port
        self.out, self.loop = engine._out[node], asyncio.get_running_loop()
        #: wall time of the last frame received on this link (watchdog input)
        self.last_recv_at = engine.now()
        #: failure-detection ladder state, and when a pending probe is
        #: declared unanswered
        self.health, self.probe_deadline = LinkHealth.LIVE, None
        #: ``held``: received and not yet placed (``reserved`` leading ones
        #: past the receive throttle); ``unsent``: taken off the send queue,
        #: waiting out the send throttle (the head already reserved)
        self.held, self.unsent = [], []
        self.reserved, self.paused = 0, False
        self.state = _BUSY
        engine._flush_later(self)  # what was staged while dialing

    # --- the receiving end --------------------------------------------------------

    def on_frames(self, frames: list[Message]) -> None:
        """The transport's push: a burst arrived."""
        # Any inbound frame proves the link alive: reset the
        # failure-detection ladder before anything can block.
        self.last_recv_at = now = self.engine.now()
        if self.health != LinkHealth.LIVE:
            self.health, self.probe_deadline = LinkHealth.LIVE, None
        nbytes = 0
        for msg in frames:
            nbytes += msg.size
        self.port.stats.throughput.record_bulk(nbytes, len(frames), now)
        if self.held:  # a burst is still in hand: this one queues behind it
            self.writer.pause_reading()  # and nothing more comes until it is placed
            self.held += frames
            return
        self.held = frames
        self._take()

    def _take(self) -> None:
        """Place the burst in hand: receive throttle, port buffer, control."""
        if self.state == _CLOSED:
            return
        engine, frames = self.engine, self.held
        throttle = engine.throttle
        while throttle.active and self.reserved < len(frames):
            delay = throttle.reserve_recv(frames[self.reserved].size, engine.now())
            self.reserved += 1
            if delay > 0:
                if engine._ins is not None:
                    engine._ins.on_throttle_stall("down", delay)
                self._pause()
                engine._call_later(delay, self._take)
                return
        placed = engine._place(self.port, frames)
        if placed == len(frames):
            self.held, self.reserved = [], 0
            if self.paused:
                self.paused = False
                self.writer.resume_reading()
        else:
            # The port buffer is full: keep the rest in hand and stop
            # reading until the engine takes from it (its on_space).
            self.held = frames[placed:]
            self.reserved = max(0, self.reserved - placed)
            self._pause()
            self.port.buffer.on_space(partial(self.loop.call_soon, self._take))
        engine._land()

    def _pause(self) -> None:
        if not self.paused:
            self.paused = True
            self.writer.pause_reading()

    def on_lost(self, exc: BaseException) -> None:
        """The transport's push: the link is gone (EOF, reset, bad frame)."""
        self.engine._peer_failed(self)  # a no-op once torn down

    # --- the sending end ----------------------------------------------------------

    def _on_size_change(self, delta: int) -> None:
        """The idle send queue's listener: the first put wakes the pump.

        It is attached only while the end is IDLE and detaches itself
        here, so the puts into a busy queue call nothing.
        """
        if delta > 0 and self.state == _IDLE:
            self.state = _BUSY
            self.out.queue.on_size_change = None
            self.engine._flush_later(self)

    def on_writable(self) -> None:
        """The transport's push: it takes more after pushing back."""
        if self.state == _BLOCKED:
            self.state = _BUSY
            self._pump()

    def _pump(self) -> None:
        """Flush staged bursts until the queue empties or the transport pushes back.

        Each pass drains the whole send queue into one ``write_batch``
        and one ``flush`` — a writev-style flush that turns N per-frame
        syscalls (or ring publishes) into one, and a switch round's output
        to one destination into one burst.  The rate limiter still paces
        per message: it cuts the burst where a reservation asks for a
        delay, and the rest leaves on a timer.
        """
        if self.state == _CLOSED:
            return
        engine, queue, writer = self.engine, self.out.queue, self.writer
        batch, self.unsent = self.unsent, []
        start = 1 if batch else 0  # a throttled head: its wait is over
        throttle = engine.throttle
        try:
            writable = writer.flush()  # what the transport still holds goes first
            while writable and (batch or not queue.is_empty):
                batch = batch or queue.drain()
                for index in range(start, len(batch) if throttle.active else 0):
                    delay = throttle.reserve_send(self.node, batch[index].size, engine.now())
                    if delay > 0:  # the rest leaves on a timer, its head reserved
                        if engine._ins is not None:
                            engine._ins.on_throttle_stall("up", delay)
                        batch, self.unsent = batch[:index], batch[index:]
                        engine._call_later(delay, self._pump)
                        break
                start = 0
                if batch:
                    write_batch(writer, batch)
                    writable = writer.flush()
                    engine._sent(self.out, batch)
                    batch = []
                if self.unsent:
                    return  # the throttle timer runs the next pass
        except (ConnectionError, OSError):
            engine._peer_failed(self, undelivered=batch)
            return
        # a throttled head the pushed-back transport could not take yet
        self.state, self.unsent = (_IDLE if writable else _BLOCKED), batch
        if writable:
            queue.on_size_change = self._on_size_change

    def close(self) -> None:
        """Detach from the transport and close it; what this end holds —
        in hand on either side, or sent to it and never delivered — is
        counted lost, once, on its link and on the node."""
        self.state = _CLOSED
        record = self.engine._record_loss
        for msg in (*self.held, *self.writer.close()):
            record(msg, self.port.stats)
        for msg in self.unsent:
            record(msg, self.out.stats)
        self.held, self.unsent = [], []


class AsyncioEngine(EngineCore):
    """One live overlay node (engine + algorithm) on real TCP sockets."""

    # asyncio round-robins every runnable task once per loop cycle, so
    # batching at each stage turns a cycle's switch sweep, sender drain
    # and ring batch into one wave instead of single-message trickles.
    CREDIT_SCALE = 64  # one credit epoch covers a whole batch
    ROUNDS_PER_WAKEUP = 256  # effectively: sweep the backlog, then yield once
    SOURCE_BURST = 32

    def __init__(
        self,
        node_id: NodeId,
        algorithm: Algorithm,
        observer_addr: NodeId | None = None,
        config: NetEngineConfig | None = None,
    ) -> None:
        super().__init__(node_id, algorithm, config or NetEngineConfig(), new_event=asyncio.Event)
        #: attached transports; a key of ``_out`` is here or in ``_dialing``
        self._peers: dict[NodeId, _Peer] = {}
        self._server: asyncio.AbstractServer | None = None
        #: ends whose idle send queues got work, pumped together when the
        #: pass that staged it ends (:meth:`_flush_later`)
        self._flush_due: list[_Peer] = []
        self._landing = False  # passes are running in a link end

        # resilience: one in-flight dial per destination, seeded backoff
        # policies, and the supervised observer uplink (bounded outbox).
        res = self.config.resilience
        self._dialing: dict[NodeId, asyncio.Task] = {}
        rng = random.Random(res.seed ^ hash((node_id.ip, node_id.port)))
        self._peer_backoff = BackoffPolicy.for_peers(res, rng)
        self._uplink = None if observer_addr is None else ObserverUplink(
            observer_addr,
            launch=self._launch,
            on_frame=self._enqueue_notification,
            on_connected=self._observer_greeting,
            backoff=BackoffPolicy.for_observer(res, rng),
            capacity=res.observer_outbox,
            retry_budget=res.observer_retry_budget,
            connect_timeout=self.config.connect_timeout,
        )
        # Instruments bind in start(): with port 0 the node's identity is
        # only final once the server socket is bound.

    # ------------------------------------------------------------------ lifecycle

    async def start(self) -> None:
        """Start the TCP server, connect the observer, spawn the engine."""
        if self._running:
            raise RuntimeError("engine already started")
        self._running = True
        self.algorithm.bind(self)
        self._server = await asyncio.start_server(
            self._accept, host=self._node_id.ip, port=self._node_id.port
        )
        if self._node_id.port == 0:
            # "The port number may be explicitly specified at start-up time;
            # otherwise, the engine chooses one of the available ports."
            actual = self._server.sockets[0].getsockname()[1]
            self._node_id = NodeId(self._node_id.ip, actual)
        self._bind_instruments()
        if self._uplink is not None:
            await self._uplink.start(self._node_id)
        self._launch(self._engine_loop(), name=f"{self._node_id}/engine")
        self._launch(self._report_loop(), name=f"{self._node_id}/report")
        if self.config.resilience.inactivity_timeout is not None:
            self._launch(self._watchdog_loop(), name=f"{self._node_id}/watchdog")

    async def stop(self) -> None:
        """Graceful termination: close all sockets, cancel all tasks."""
        if not self._running:
            return
        self._running = False
        self.algorithm.on_stop()
        tasks = self._teardown(keep=asyncio.current_task())
        if self._uplink is not None:
            self._uplink.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await asyncio.gather(*tasks, return_exceptions=True)

    # ----------------------------------------------------------------------- Clock

    def now(self) -> float:
        """Wall-clock seconds (monotonic)."""
        return time.monotonic()

    def _spawn(self, coro: Coroutine, name: str) -> asyncio.Task:
        # ensure_future, not create_task: synchronous callers (tests
        # driving an engine between loop runs) have no *running* loop
        task = asyncio.ensure_future(coro)
        task.set_name(name)
        return task

    async def _sleep(self, delay: float) -> None:
        await asyncio.sleep(delay)

    def _call_later(self, delay: float, callback: Any, *args: Any) -> None:
        asyncio.get_running_loop().call_later(delay, callback, *args)

    def _land(self) -> None:
        """A receiving end placed work: switch it where it landed.

        While the engine loop is parked and nothing has woken it, the
        passes run right here, in the transport's callback, and every
        link they made busy flushes when they end: a hop is one loop
        iteration, not a receive, an engine wake-up and a pump run.
        Otherwise a pass is already due, or running (this is a landing
        inside one), and waking the loop is all it takes.
        """
        if not self._parked or self._wake.is_set():
            self._wake.set()
            return
        self._parked = False
        # What an earlier pass staged leaves first, so this pass finds
        # the room it freed: a landing scheduled ahead of that flush
        # would overflow the send queue into a pending forward.
        self._flush()
        self._landing = True
        try:
            done = self._passes()
        except Exception as exc:  # an Algorithm hook raised: as if in the loop
            done = True
            self._fail(f"{self._node_id}/engine", exc)
        finally:
            self._parked, self._landing = True, False
        self._flush()
        if not done:
            self._wake.set()  # a backlog past one wake-up's budget

    def _flush_later(self, peer: _Peer) -> None:
        """``peer``'s idle send queue got work: pump it when the pass ends.

        A pass running in a link end flushes as it returns; any other
        staging (the engine loop's passes, a source, a timer) is flushed
        on the next loop iteration, every link of it in one callback.
        """
        due = self._flush_due
        due.append(peer)
        if len(due) == 1 and not self._landing:
            peer.loop.call_soon(self._flush)

    def _flush(self) -> None:
        due, self._flush_due = self._flush_due, []
        for peer in due:
            peer._pump()

    # ------------------------------------------------------------------- Transport

    def send_to_observer(self, msg: Message) -> None:
        """Queue a message on the supervised observer uplink.

        The outbox survives observer restarts: messages queued while the
        link is down are flushed once the uplink redials.  Overflow
        evicts the oldest entry and the drop is counted — a status
        report can be lost under sustained outage, but never silently.
        """
        if self._uplink is None or not self._running:
            return
        self._uplink.push(msg)
        if self._ins is not None:
            self._ins.n_observer_drops = self._uplink.drops

    def _open_link(self, dest: NodeId) -> None:
        self._dialing[dest] = self._launch(self._dial(dest), name=f"{self._node_id}/dial-{dest}")

    def _close_link(self, peer: NodeId, outbound: bool) -> None:
        dial = self._dialing.pop(peer, None)
        if dial is not None:
            dial.cancel()
        entry = self._peers.get(peer)
        if entry is not None:
            self._release(entry)
            # full duplex: the other half cannot outlive the transport
            (self._drop_upstream if outbound else self._drop_downstream)(peer)

    def _request_shutdown(self) -> None:
        self._launch(self.stop(), name=f"{self._node_id}/stop")

    def transport_mix(self) -> dict[str, int]:
        """Live peer links counted by transport kind.

        ``{"shm": 2, "tcp": 1}`` — the cluster benchmarks use this to
        attribute throughput to the transport actually carrying it.
        """
        mix: dict[str, int] = {}
        for peer in self._peers.values():
            kind = getattr(peer.writer, "transport_kind", "tcp")
            mix[kind] = mix.get(kind, 0) + 1
        return mix

    # ----------------------------------------------------------------- connections

    async def connect(self, dest: NodeId) -> bool:
        """Ensure a persistent connection to ``dest`` exists."""
        self._connect(dest)
        dial = self._dialing.get(dest)
        if dial is not None:
            # wait() neither cancels the dial when this caller is
            # cancelled nor raises when the dial is
            await asyncio.wait([dial])
        return dest in self._peers

    async def _dial(self, dest: NodeId) -> None:
        """The one supervised connect behind ``_out[dest]``.

        Bounded retries with jittered backoff; success attaches the
        transport to the link the core already created (draining what
        was staged meanwhile, in order), exhaustion drops the link so
        the staged messages are counted lost.
        """
        res = self.config.resilience
        try:
            for attempt in range(max(1, res.connect_retries)):
                if attempt:
                    await asyncio.sleep(self._peer_backoff.delay(attempt - 1))
                if not self._running or dest in self._peers:
                    return  # stopped, or an inbound connection won meanwhile
                try:
                    link = await self._open_connection(dest)
                except (OSError, asyncio.TimeoutError):
                    if self._ins is not None:
                        self._ins.n_connect_failures += 1
                    continue
                existing = self._peers.get(dest)
                if not self._running:  # stopped while the dial was in flight
                    link.close()
                elif existing is None:
                    self._register_peer(dest, link, announce=False)
                elif self._node_id < dest:
                    # Simultaneous connect: both sides dialed each other.
                    # Deterministic tie-break — the connection dialed by
                    # the lower NodeId is canonical on both ends.
                    self._adopt_connection(existing, link)
                else:
                    link.close()
                return
        finally:
            if self._dialing.get(dest) is asyncio.current_task():
                del self._dialing[dest]
                if self._running and dest not in self._peers:
                    self._drop_downstream(dest, notify="down")

    async def _open_connection(self, dest: NodeId) -> Any:
        loopback = self.config.loopback
        if loopback is not None:
            # Co-hosted peers bypass sockets (and chaos wrapping, which
            # targets the socket layer): the resolver hands both engines
            # in-process channel endpoints in one synchronous step.
            endpoint = loopback.dial(self._node_id, dest)
            if endpoint is not None:
                return endpoint
        chaos = self.config.chaos
        if chaos is not None:
            chaos.check_connect(self._node_id, dest)
        elif self.config.shm_ring_bytes > 0:
            # Offer shared-memory ring channels in the HELLO; the dial
            # degrades to the plain-TCP connection it already opened
            # when the peer is off-machine or has shm disabled.
            from repro.net.shm import dial_shm

            return await dial_shm(
                dest, self._node_id, self.config.shm_ring_bytes,
                self.config.connect_timeout, MAX_FRAME_PAYLOAD,
            )
        link = StreamLink(*await open_identified(
            dest, self._node_id, timeout=self.config.connect_timeout
        ))
        return link if chaos is None else chaos.wrap(self._node_id, dest, link)

    async def _accept(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            chaos = self.config.chaos
            if chaos is not None:
                delay = chaos.accept_delay_for(self._node_id)
                if delay > 0:
                    await asyncio.sleep(delay)
            peer_id, hello_fields = await expect_hello_fields(reader)
            offer = hello_fields.get("shm")
            if offer is not None:
                # Answer the ring offer before the link goes live: the
                # dialer blocks on our SHM_ACK verdict either way.
                from repro.net.shm import accept_shm

                endpoint = await accept_shm(
                    offer, self._node_id, reader, writer,
                    enabled=(
                        self.config.shm_ring_bytes > 0
                        and self.config.chaos is None
                        and self._running
                    ),
                    max_payload=MAX_FRAME_PAYLOAD,
                )
                if endpoint is not None:
                    self.accept_transport(peer_id, endpoint)
                    return
        except (asyncio.CancelledError, Exception):
            writer.close()
            return
        link = StreamLink(reader, writer)
        if self.config.chaos is not None:
            link = self.config.chaos.wrap(self._node_id, peer_id, link)
        self.accept_transport(peer_id, link)

    def accept_transport(self, peer_id: NodeId, link: Any) -> None:
        """Admit an identified inbound link (socket, shm or loopback)."""
        if not self._running:
            link.close()
            return
        existing = self._peers.get(peer_id)
        if existing is not None:
            # Simultaneous connect resolved deterministically: keep the
            # connection dialed by the lower NodeId, on both ends.
            if peer_id < self._node_id:
                self._adopt_connection(existing, link)
            else:
                link.close()
            return
        self._register_peer(peer_id, link, announce=True)

    def _register_peer(self, node: NodeId, link: Any, announce: bool) -> None:
        """Attach a transport: it carries both directions of the link."""
        if node not in self._out:  # inbound: the link is our way back, too
            self._add_downstream(node)
        self._attach(node, link, self._add_upstream(node, announce))

    def _attach(self, node: NodeId, link: Any, port: ReceiverPort) -> None:
        peer = self._peers[node] = _Peer(self, node, link, port)
        link.attach(peer)  # in the table first: the first push may be the link's end

    def _adopt_connection(self, peer: _Peer, link: Any) -> None:
        """Swap ``peer``'s transport for the canonical connection.

        Used by the simultaneous-connect tie-break: the losing transport
        is closed and a fresh ``_Peer`` takes the same link over —
        queues, receiver port, stats and pending forwards all survive,
        and no BROKEN_LINK is signalled.
        """
        peer.close()
        self._attach(peer.node, link, peer.port)

    def _release(self, peer: _Peer) -> None:
        """Take ``peer`` out of the table and close its transport."""
        del self._peers[peer.node]
        peer.close()

    def _peer_failed(self, peer: _Peer, undelivered: Sequence[Message] = ()) -> None:
        """The transport died: both halves of the link fail together."""
        if self._peers.get(peer.node) is not peer:
            return
        self._release(peer)
        self._drop_downstream(peer.node, undelivered=undelivered)
        # a full-duplex peer was also an upstream: one BROKEN_LINK, one domino
        self._drop_upstream(peer.node, notify="both")

    # ------------------------------------------------------------------- observer

    def _observer_greeting(self) -> list[Message]:
        """First frames on every observer (re)connect: a fresh BOOT
        renews the node's lease after an observer restart or partition."""
        if self._ins is not None:
            self._ins.n_observer_reconnects = self._uplink.reconnects
        return [self._boot_message()]

    # ------------------------------------------------------------------ watchdog

    async def _watchdog_loop(self) -> None:
        """Confirm silent link failures: inactivity -> probe -> teardown.

        A peer that has sent nothing for ``inactivity_timeout`` becomes
        SUSPECT and is probed (a tiny HEARTBEAT request the remote
        engine echoes — on demand only, never a periodic heartbeat).
        Any return traffic resets the ladder; an unanswered probe past
        ``probe_timeout`` confirms the link DEAD and fires the same
        ``_peer_failed`` domino teardown as a loud socket error.
        """
        res = self.config.resilience
        timeout = res.inactivity_timeout
        assert timeout is not None
        interval = res.watchdog_interval()
        while self._running:
            await asyncio.sleep(interval)
            if not self._running:
                return
            now = self.now()
            ins = self._ins
            for peer in list(self._peers.values()):
                if self._peers.get(peer.node) is not peer:
                    continue  # torn down while we iterated
                if now - peer.last_recv_at <= timeout:
                    continue  # the receiving end resets health on traffic
                if peer.health == LinkHealth.LIVE:
                    peer.health = LinkHealth.SUSPECT
                    if ins is not None:
                        ins.n_suspects += 1
                        if ins.tracer.enabled:
                            ins.trace_port(now, EventType.LINK_SUSPECT, peer.port.label)
                    self._send_liveness_probe(peer, now)
                elif (
                    peer.health == LinkHealth.PROBING
                    and peer.probe_deadline is not None
                    and now >= peer.probe_deadline
                ):
                    peer.health = LinkHealth.DEAD
                    if ins is not None:
                        ins.n_inactivity_deaths += 1
                        if ins.tracer.enabled:
                            ins.trace_port(now, EventType.LINK_DEAD, peer.port.label)
                    self._peer_failed(peer)

    def _send_liveness_probe(self, peer: _Peer, now: float) -> None:
        """SUSPECT -> PROBING: one probe, one deadline."""
        probe = Message.with_fields(
            MsgType.HEARTBEAT, self._node_id, CONTROL_APP,
            probe="req", t0=now, origin=str(self._node_id), liveness=1,
        )
        self._out[peer.node].queue.put_force(probe)
        peer.health = LinkHealth.PROBING
        peer.probe_deadline = now + self.config.resilience.probe_timeout
        if self._ins is not None:
            self._ins.n_probes += 1
            if self._ins.tracer.enabled:
                self._ins.trace_port(now, EventType.LINK_PROBE, peer.port.label)
