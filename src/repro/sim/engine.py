"""The simulated engine backend: EngineCore over the discrete-event kernel.

All switching semantics — control draining, the weighted-round-robin
switch, pending-forward retries, probe/bandwidth/status handling, source
pacing, telemetry — and the link table with its teardown live in
:class:`repro.core.engine_core.EngineCore`.  This module supplies only
the Clock (virtual time, kernel tasks) and the Transport: simulated
links opened through the :class:`Fabric` (one receiver task per
upstream, one sender task per downstream), inactivity detection tuned
to virtual time, and graceful termination.

The algorithm runs only inside the engine task (plus source tasks, which
never interleave mid-``process``), preserving the paper's guarantee that
algorithms need no thread-safe data structures.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import partial
from typing import Any, Coroutine, Protocol

from repro.core.algorithm import Algorithm
from repro.core.bandwidth import BandwidthSpec
from repro.core.engine_core import EngineCore, OutLink
from repro.core.ids import NodeId
from repro.core.message import Message
from repro.core.msgtypes import MsgType
from repro.core.stats import LinkStats
from repro.core.switch import ReceiverPort
from repro.errors import BufferClosedError, LinkDownError
from repro.sim.kernel import Kernel, Task
from repro.sim.link import SimLink
from repro.sim.sync import SimEvent, SimQueue
from repro.telemetry import Telemetry
from repro.telemetry.tracing import EventType


class Fabric(Protocol):
    """What an engine needs from the surrounding network."""

    def open_link(self, src: NodeId, dst: NodeId) -> SimLink | None:
        """Create a directed connection; ``None`` if ``dst`` is not alive."""

    def to_observer(self, msg: Message) -> None:
        """Deliver a message to the (centralized) observer."""

    def node_terminated(self, node: NodeId) -> None:
        """Notification that ``node`` finished its graceful shutdown."""


@dataclass
class EngineConfig:
    """Tunables of one engine instance.

    ``buffer_capacity`` is the paper's per-buffer size in messages (both
    receiver and sender buffers) — the lever between delay-sensitive
    (small) and bandwidth-aggressive (large) behaviour (Section 2.4).
    """

    buffer_capacity: int = 64
    report_interval: float = 1.0
    #: seconds of upstream silence before the link is declared failed;
    #: ``None`` disables inactivity detection (sim links usually fail loudly).
    inactivity_timeout: float | None = None
    #: minimal virtual time between two source-produced messages.  "Back to
    #: back as fast as possible" needs a floor in a discrete-event world:
    #: without one, a source whose sends are never flow-controlled (e.g.
    #: all its destinations just died) would produce unboundedly many
    #: messages without advancing virtual time.
    source_interval: float = 0.001
    #: period between repeated bootstrap requests to the observer, so nodes
    #: that booted early still learn about later arrivals; ``None`` sends a
    #: single bootstrap request at start-up only.
    bootstrap_refresh: float | None = 5.0
    bandwidth: BandwidthSpec = dataclass_field(default_factory=BandwidthSpec)
    #: opt-in telemetry (metrics + lifecycle tracing); ``None`` keeps the
    #: data path entirely uninstrumented (the default).
    telemetry: Telemetry | None = None


@dataclass
class _SenderLink:
    """The transport behind one outbound link (thread-per-sender)."""

    dest: NodeId
    link: SimLink
    task: Task | None = None
    #: virtual time at which the current in-flight delivery started, for
    #: inactivity detection of silently-stalled links; None when idle.
    in_flight_since: float | None = None


class SimEngine(EngineCore):
    """One virtualized overlay node: engine + algorithm + connections."""

    def __init__(
        self,
        kernel: Kernel,
        node_id: NodeId,
        algorithm: Algorithm,
        fabric: Fabric,
        config: EngineConfig | None = None,
    ) -> None:
        self.kernel = kernel
        self._fabric = fabric
        config = config or EngineConfig()
        super().__init__(
            node_id, algorithm, config,
            new_queue=partial(SimQueue, kernel),
            new_event=partial(SimEvent, kernel),
        )
        self._senders: dict[NodeId, _SenderLink] = {}
        self._upstream_links: dict[NodeId, SimLink] = {}
        self._last_recv_at: dict[NodeId, float] = {}
        self._terminated = False
        self.SOURCE_INTERVAL = config.source_interval
        self._bind_instruments()

    # ------------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Bind the algorithm and spawn the engine's tasks."""
        if self._running or self._terminated:
            raise RuntimeError(f"engine {self._node_id} already started")
        self._running = True
        self.algorithm.bind(self)
        self._launch(self._boot_and_run(), name=f"{self._node_id}/engine")
        self._launch(self._report_loop(), name=f"{self._node_id}/report")
        if self.config.inactivity_timeout is not None:
            self._launch(self._watchdog_loop(), name=f"{self._node_id}/watchdog")

    def terminate(self) -> None:
        """Gracefully shut the node down (the observer's *terminate node*).

        All incident links are broken so neighbours detect the failure
        through their normal error paths; local tasks are cancelled and
        data structures cleared — the paper's graceful termination.
        """
        if not self._running:
            return
        self._running = False
        self._terminated = True
        self._local_apps.clear()
        self._teardown()
        self._control.close()
        self.algorithm.on_stop()
        self._fabric.node_terminated(self._node_id)

    # ------------------------------------------------------ Clock / ObserverSink

    def now(self) -> float:
        return self.kernel.now

    def send_to_observer(self, msg: Message) -> None:
        if self._running:
            self._fabric.to_observer(msg)

    def _spawn(self, coro: Coroutine, name: str) -> Task:
        return self.kernel.spawn(coro, name=name)

    async def _sleep(self, delay: float) -> None:
        if delay > 0:  # zero virtual seconds: nothing to wait for
            await self.kernel.sleep(delay)

    def _call_later(self, delay: float, callback: Any, *args: Any) -> None:
        self.kernel.call_later(delay, callback, *args)

    # ------------------------------------------------------------------- Transport

    def _open_link(self, dest: NodeId) -> None:
        link = self._fabric.open_link(self._node_id, dest)
        if link is None:
            self._drop_downstream(dest, notify="down")
            return
        sender = self._senders[dest] = _SenderLink(dest, link)
        sender.task = self._launch(
            self._sender_loop(sender, self._out[dest]), name=f"{self._node_id}/send-{dest}"
        )

    def _close_link(self, peer: NodeId, outbound: bool) -> None:
        if outbound:
            sender = self._senders.pop(peer, None)
            if sender is not None:
                sender.link.break_()
                sender.task.cancel()
        else:
            self._upstream_links.pop(peer).break_()
            del self._last_recv_at[peer]

    def _request_shutdown(self) -> None:
        self.terminate()

    async def _boot_and_run(self) -> None:
        # Table 1: start the TCP server, bootstrap from observer, then loop.
        self._send_boot()
        if self.config.bootstrap_refresh is not None:
            self._launch(self._bootstrap_loop(), name=f"{self._node_id}/boot")
        await self._engine_loop()

    # ----------------------------------------------------------------- connections

    def connect(self, dest: NodeId) -> bool:
        """Ensure a persistent outgoing connection to ``dest`` exists."""
        self._connect(dest)
        return dest in self._out

    def accept_upstream(self, link: SimLink) -> None:
        """Register an incoming connection (called by the fabric)."""
        if not self._running:
            return
        if link.src in self._upstream_links:
            # The peer re-dialed before the receiver of its previous
            # (broken) link noticed: the new link supersedes the old.
            self._drop_upstream(link.src, notify="up")
        self._upstream_links[link.src] = link
        self._last_recv_at[link.src] = self.kernel.now
        self._launch(
            self._receiver_loop(link, self._add_upstream(link.src)),
            name=f"{self._node_id}/recv-{link.src}",
        )

    def deliver_control(self, msg: Message) -> None:
        """Inject a message into the node's publicized port (observer path)."""
        self._enqueue_notification(msg)

    async def _bootstrap_loop(self) -> None:
        refresh = self.config.bootstrap_refresh
        assert refresh is not None
        while self._running:
            await self.kernel.sleep(refresh)
            if self._running:
                self._send_boot()

    # ------------------------------------------------------------------- receivers

    async def _receiver_loop(self, link: SimLink, port: ReceiverPort) -> None:
        peer = link.src
        stats = port.stats
        while self._running:
            try:
                msg, sent_at = await link.inbox.get()
            except BufferClosedError:
                if self._running and self._upstream_links.get(peer) is link:
                    self._drop_upstream(peer, notify="up")
                return
            arrival = sent_at + link.latency
            if arrival > self.kernel.now:
                await self.kernel.sleep(arrival - self.kernel.now)
            delay = self.throttle.reserve_recv(msg.size, self.kernel.now)
            if delay > 0:
                if self._ins is not None:
                    self._ins.on_throttle_stall("down", delay)
                await self.kernel.sleep(delay)
            if self._upstream_links.get(peer) is not link:
                # Torn down (a re-dial superseded this link) while the
                # message was in hand: it dies with the link, counted.
                self._count_wire_lost(link, msg, stats)
                return
            stats.throughput.record(msg.size, self.kernel.now)
            self._last_recv_at[peer] = self.kernel.now
            if msg.type == MsgType.DATA:
                try:
                    await port.buffer.put(msg)  # type: ignore[attr-defined]
                except BufferClosedError:
                    self._count_wire_lost(link, msg, stats)
                    return
                port.note_bytes(msg.size)
                ins = self._ins
                if ins is not None:
                    now = self.kernel.now
                    label = port.label
                    ins.enqueued[label] += 1
                    port.wait_times.append(now)
                    msg._hop_t0 = now  # this hop's clock starts here
                    if ins.tracer.enabled:
                        ins.trace_msg(now, EventType.ENQUEUE, msg, label)
            else:
                if msg.type == MsgType.BROKEN_SOURCE:
                    self._propagate_broken_source(msg, peer)
                self._control.put_force(msg)
            self._wake.set()

    def _count_wire_lost(self, link: SimLink, in_hand: Message, stats: LinkStats) -> None:
        """This end of ``link`` is gone: the message in hand and whatever
        the wire still carries will never be placed, so they are lost."""
        self._record_loss(in_hand, stats)
        for msg, _sent_at in link.inbox.drain():
            self._record_loss(msg, stats)

    async def _watchdog_loop(self) -> None:
        """Detect upstream failures via long consecutive traffic inactivity."""
        timeout = self.config.inactivity_timeout
        assert timeout is not None
        while self._running:
            await self.kernel.sleep(timeout / 2)
            if not self._running:
                return
            now = self.kernel.now
            for peer, last in list(self._last_recv_at.items()):
                if now - last > timeout:
                    # unblocks the receiver task, which drops the upstream
                    self._upstream_links[peer].break_()
            # Sender side: a delivery stuck longer than the timeout means the
            # downstream is silently gone (stalled link) — tear it down.
            for sender in list(self._senders.values()):
                started = sender.in_flight_since
                if started is not None and now - started > timeout:
                    self._drop_downstream(sender.dest, notify="down")

    # --------------------------------------------------------------------- senders

    async def _sender_loop(self, sender: _SenderLink, out: OutLink) -> None:
        msg = None  # taken off the queue, not yet on the wire
        try:
            while self._running:
                try:
                    msg = await out.queue.get()
                except BufferClosedError:
                    return
                sender.in_flight_since = self.kernel.now
                delay = self.throttle.reserve_send(sender.dest, msg.size, self.kernel.now)
                if delay > 0:
                    if self._ins is not None:
                        self._ins.on_throttle_stall("up", delay)
                    await self.kernel.sleep(delay)
                if self._ins is not None and sender.link.inbox.is_full:
                    self._ins.backpressure[out.label] += 1
                try:
                    await sender.link.deliver(msg)
                except LinkDownError:
                    if self._running and self._senders.get(sender.dest) is sender:
                        self._drop_downstream(sender.dest, notify="down")
                    return
                sender.in_flight_since = None
                out.stats.throughput.record(msg.size, self.kernel.now)
                ins = self._ins
                if ins is not None and msg.type == MsgType.DATA:
                    label = out.label
                    ins.forwarded[label] += 1
                    now = self.kernel.now
                    t0 = msg._hop_t0
                    if t0 is not None:
                        ins.observe_hop(now - t0 if now > t0 else 0.0)
                    if ins.tracer.enabled:
                        ins.trace_msg(now, EventType.FORWARD, msg, label)
                msg = None
                self._send_space_freed()
        finally:
            if msg is not None:  # in hand when the link broke or was dropped
                self._record_loss(msg, out.stats)

    def __repr__(self) -> str:
        state = "running" if self._running else ("terminated" if self._terminated else "new")
        return f"SimEngine({self._node_id}, {state})"
