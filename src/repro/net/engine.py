"""The asyncio engine backend: EngineCore over real (or loopback) transports.

All switching semantics — control draining, the weighted-round-robin
switch, pending-forward retries, probe/bandwidth/status handling, source
pacing, telemetry — and the link table with its teardown live in
:class:`repro.core.engine_core.EngineCore`.  This module supplies the
Clock (monotonic time, asyncio tasks) and the Transport: TCP server/dial
machinery (one dial task per destination, attaching to the send queue
the core created at the first ``send()``), one receiver task and one
sender task per persistent full-duplex peer connection, and the
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
objects by reference — the IO loops below never notice the difference
because every link, socket or not, reads and writes whole bursts through
one endpoint surface (see the table in ``docs/architecture.md``).

Because asyncio is single-threaded, the paper's headline guarantee holds
natively: the algorithm runs without any thread-safe data structures.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field as dataclass_field
from typing import TYPE_CHECKING, Any, Coroutine, Sequence

from repro.core.algorithm import Algorithm
from repro.core.bandwidth import BandwidthSpec
from repro.core.engine_core import EngineCore
from repro.core.ids import CONTROL_APP, NodeId
from repro.core.message import Message
from repro.core.msgtypes import MsgType
from repro.core.switch import ReceiverPort
from repro.errors import BufferClosedError, CodecError
from repro.net.framing import (  # noqa: F401 - read_message: bench.trace wraps it here
    MAX_FRAME_PAYLOAD,
    FramedReader,
    expect_hello_fields,
    open_identified,
    read_message,
    write_batch,
    write_message,
)
from repro.net.observer_link import ObserverUplink
from repro.net.queues import AsyncBoundedQueue
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


@dataclass
class _Peer:
    """One persistent, full-duplex connection to another overlay node.

    ``reader`` speaks ``recv_message`` + ``drain_frames`` and ``writer``
    takes a burst through ``write_batch`` + ``drain`` — a framed TCP
    stream, an in-process loopback endpoint or a shm ring endpoint.
    """

    node: NodeId
    reader: Any
    writer: Any
    port: ReceiverPort
    sender_task: asyncio.Task | None = None
    receiver_task: asyncio.Task | None = None
    #: wall time of the last frame received on this link (watchdog input)
    last_recv_at: float = 0.0
    #: failure-detection ladder state (:class:`LinkHealth`)
    health: str = LinkHealth.LIVE
    #: when a pending liveness probe is declared unanswered
    probe_deadline: float | None = None
    #: bumped when the transport is swapped (simultaneous-connect
    #: tie-break); IO loops from an older transport must not tear the
    #: peer down on their way out
    epoch: int = 0


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
        super().__init__(
            node_id, algorithm, config or NetEngineConfig(),
            new_queue=AsyncBoundedQueue,
            new_event=asyncio.Event,
        )
        #: attached transports; a key of ``_out`` is here or in ``_dialing``
        self._peers: dict[NodeId, _Peer] = {}
        self._server: asyncio.AbstractServer | None = None

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
                    reader, writer = await self._open_connection(dest)
                except (OSError, asyncio.TimeoutError):
                    if self._ins is not None:
                        self._ins.n_connect_failures += 1
                    continue
                existing = self._peers.get(dest)
                if not self._running:  # stopped while the dial was in flight
                    writer.close()
                elif existing is None:
                    self._register_peer(dest, reader, writer, announce=False)
                elif self._node_id < dest:
                    # Simultaneous connect: both sides dialed each other.
                    # Deterministic tie-break — the connection dialed by
                    # the lower NodeId is canonical on both ends.
                    self._adopt_connection(existing, reader, writer)
                else:
                    writer.close()
                return
        finally:
            if self._dialing.get(dest) is asyncio.current_task():
                del self._dialing[dest]
                if self._running and dest not in self._peers:
                    self._drop_downstream(dest, notify="down")

    async def _open_connection(self, dest: NodeId) -> tuple[Any, Any]:
        loopback = self.config.loopback
        if loopback is not None:
            # Co-hosted peers bypass sockets (and chaos wrapping, which
            # targets the socket layer): the resolver hands both engines
            # in-process channel endpoints in one synchronous step.
            pair = loopback.dial(self._node_id, dest)
            if pair is not None:
                return pair
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
        reader, writer = await open_identified(
            dest, self._node_id, timeout=self.config.connect_timeout
        )
        if chaos is not None:
            reader, writer = chaos.wrap(self._node_id, dest, reader, writer)
        return FramedReader(reader), writer

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
                    self.accept_transport(peer_id, endpoint, endpoint)
                    return
        except asyncio.CancelledError:
            writer.close()
            return
        except Exception:
            writer.close()
            return
        if self.config.chaos is not None:
            reader, writer = self.config.chaos.wrap(self._node_id, peer_id, reader, writer)
        self.accept_transport(peer_id, FramedReader(reader), writer)

    def accept_transport(self, peer_id: NodeId, reader: Any, writer: Any) -> None:
        """Admit an identified inbound transport (socket or loopback)."""
        if not self._running:
            writer.close()
            return
        existing = self._peers.get(peer_id)
        if existing is not None:
            # Simultaneous connect resolved deterministically: keep the
            # connection dialed by the lower NodeId, on both ends.
            if peer_id < self._node_id:
                self._adopt_connection(existing, reader, writer)
            else:
                writer.close()
            return
        self._register_peer(peer_id, reader, writer, announce=True)

    def _register_peer(self, node: NodeId, reader: Any, writer: Any, announce: bool) -> None:
        """Attach a transport: it carries both directions of the link."""
        if node not in self._out:  # inbound: the link is our way back, too
            self._add_downstream(node)
        peer = self._peers[node] = _Peer(
            node=node,
            reader=reader,
            writer=writer,
            port=self._add_upstream(node, announce),
            last_recv_at=self.now(),
        )
        self._start_io(peer)

    def _start_io(self, peer: _Peer) -> None:
        name, epoch = f"{self._node_id}/{peer.node}", peer.epoch
        peer.sender_task = self._launch(self._sender_loop(peer, epoch), name=f"{name}/send")
        peer.receiver_task = self._launch(self._receiver_loop(peer, epoch), name=f"{name}/recv")

    def _adopt_connection(self, peer: _Peer, reader: Any, writer: Any) -> None:
        """Swap ``peer``'s transport for the canonical connection.

        Used by the simultaneous-connect tie-break: the losing socket is
        closed and replaced in place — queues, receiver port, stats and
        pending forwards all survive, and no BROKEN_LINK is signalled.
        The epoch bump keeps the old transport's IO loops (already
        cancelled, but possibly holding a just-raised socket error) from
        tearing down the adopted link on their way out.
        """
        peer.epoch += 1
        peer.sender_task.cancel()
        peer.receiver_task.cancel()
        peer.writer.close()
        peer.reader = reader
        peer.writer = writer
        peer.last_recv_at = self.now()
        peer.health = LinkHealth.LIVE
        peer.probe_deadline = None
        self._start_io(peer)

    def _release(self, peer: _Peer) -> None:
        """Close ``peer``'s transport and stop its IO tasks."""
        del self._peers[peer.node]
        peer.writer.close()
        peer.sender_task.cancel()
        peer.receiver_task.cancel()

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

    # ------------------------------------------------------------------ I/O tasks

    async def _sender_loop(self, peer: _Peer, epoch: int = 0) -> None:
        """One writer per peer link, flushing whole batches per wakeup.

        Every wakeup drains the entire ``send_queue`` and writes the
        batch through one ``drain()`` — a writev-style flush that turns
        N per-frame syscalls (or ring publishes) into one.  The switch
        stages a round's worth of frames before this task runs again,
        so a round's output to one destination leaves in a single
        flush.  The rate limiter still paces per message: when a
        reservation asks for a delay, everything already written is
        flushed before the sleep so pacing never holds released bytes
        hostage.
        """
        link = self._out[peer.node]
        queue = link.queue
        throttle = self.throttle
        writer = peer.writer
        batch: list[Message] = []
        while self._running:
            try:
                batch.append(await queue.get())
            except BufferClosedError:
                return
            if not queue.is_empty:
                batch.extend(queue.drain())
            flushed = 0  # messages safely handed to the transport
            try:
                if throttle.active:
                    for written, msg in enumerate(batch):
                        delay = throttle.reserve_send(peer.node, msg.size, self.now())
                        if delay > 0:
                            if written > flushed:
                                await writer.drain()
                                flushed = written
                            if self._ins is not None:
                                self._ins.on_throttle_stall("up", delay)
                            await asyncio.sleep(delay)
                        write_message(writer, msg)
                else:  # unconstrained: one vectorized stage for the burst
                    write_batch(writer, batch)
                await writer.drain()
                flushed = len(batch)
            except (ConnectionError, OSError):
                if self._running and peer.epoch == epoch:
                    self._peer_failed(peer, undelivered=batch[flushed:])
                return
            now = self.now()
            ins = self._ins
            nbytes = 0
            for msg in batch:
                nbytes += msg.size
            link.stats.throughput.record_bulk(nbytes, len(batch), now)
            if ins is not None:
                for msg in batch:
                    if msg.type == MsgType.DATA:
                        label = peer.port.label
                        ins.forwarded[label] += 1
                        t0 = msg._hop_t0
                        if t0 is not None:
                            ins.observe_hop(now - t0 if now > t0 else 0.0)
                        if ins.tracer.enabled:
                            ins.trace_msg(now, EventType.FORWARD, msg, label)
            batch.clear()
            self._send_space_freed()

    async def _receiver_loop(self, peer: _Peer, epoch: int = 0) -> None:
        """One reader per peer link, taking a whole burst per wakeup.

        Every transport hands over what arrived since the last wakeup
        through the same two calls: one awaited ``recv_message`` and a
        synchronous ``drain_frames`` for the rest of the burst.  Back
        pressure is the port buffer: the loop parks on ``buffer.put``
        before it reads again, so a slow engine stops the reads.  What
        is in hand when the link goes away — parsed, not yet placed —
        is counted lost here; what the buffer holds is counted by
        ``_drop_upstream``.
        """
        reader = peer.reader
        throttle = self.throttle
        port = peer.port
        buffer = port.buffer
        meter = port.stats.throughput
        data_type = MsgType.DATA
        batch: list[Message] = []
        placed = 0  # leading messages of ``batch`` already handed on
        try:
            while self._running:
                try:
                    batch.append(await reader.recv_message())
                    batch += reader.drain_frames()
                except (asyncio.IncompleteReadError, ConnectionError, OSError, CodecError):
                    if self._running and peer.epoch == epoch:
                        self._peer_failed(peer)
                    return
                now = self.now()
                # Any inbound frame proves the link alive: reset the
                # failure-detection ladder before anything can block.
                peer.last_recv_at = now
                if peer.health != LinkHealth.LIVE:
                    peer.health = LinkHealth.LIVE
                    peer.probe_deadline = None
                nbytes = 0
                data_only = True
                for msg in batch:
                    nbytes += msg.size
                    if msg._type != data_type:
                        data_only = False
                if throttle.active:
                    for msg in batch:
                        delay = throttle.reserve_recv(msg.size, self.now())
                        if delay > 0:
                            if self._ins is not None:
                                self._ins.on_throttle_stall("down", delay)
                            await asyncio.sleep(delay)
                meter.record_bulk(nbytes, len(batch), now)
                ins = self._ins
                if data_only and ins is None:
                    # Pure data burst: one bulk append per buffer-space
                    # window instead of per-message queue bookkeeping.
                    placed = buffer.put_many_nowait(batch)
                    if placed == len(batch):
                        port.note_bytes(nbytes)
                    else:
                        port.note_bytes(sum(m.size for m in batch[:placed]))
                    while placed < len(batch):
                        # Wake the engine *before* parking for space:
                        # it is the one that frees the buffer.
                        self._wake.set()
                        await buffer.put(batch[placed])  # type: ignore[attr-defined]
                        start, placed = placed, placed + 1
                        placed += buffer.put_many_nowait(batch, placed)
                        port.note_bytes(sum(m.size for m in batch[start:placed]))
                else:
                    for msg in batch:
                        if msg._type == data_type:
                            if not buffer.put_nowait(msg):
                                self._wake.set()  # engine frees the space
                                await buffer.put(msg)  # type: ignore[attr-defined]
                            port.note_bytes(msg.size)
                            if ins is not None:
                                now = self.now()
                                label = port.label
                                ins.enqueued[label] += 1
                                port.wait_times.append(now)
                                msg._hop_t0 = now  # this hop's clock starts here
                                if ins.tracer.enabled:
                                    ins.trace_msg(now, EventType.ENQUEUE, msg, label)
                        else:
                            if msg.type == MsgType.BROKEN_SOURCE:
                                self._propagate_broken_source(msg, peer.node)
                            self._control.put_force(msg)
                        placed += 1
                batch.clear()
                placed = 0
                self._wake.set()
        except BufferClosedError:
            pass  # the port was dropped under a parked put
        finally:
            for msg in batch[placed:]:
                self._record_loss(msg, port.stats)

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
                    continue  # the receiver loop resets health on traffic
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
