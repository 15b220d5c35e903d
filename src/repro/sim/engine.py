"""The simulated engine backend: EngineCore over the discrete-event kernel.

All switching semantics — control draining, the weighted-round-robin
switch, pending-forward retries, probe/bandwidth/status handling, source
pacing, telemetry — and the link table with its teardown live in
:class:`repro.core.engine_core.EngineCore`.  This module supplies only
the Clock (virtual time, kernel tasks) and the Transport: simulated
links opened through the :class:`Fabric`, inactivity detection tuned to
virtual time, and graceful termination.

The paper runs one receiver and one sender thread per connection.  Here
a link's two ends are callbacks instead of tasks: a pump per downstream
(:class:`_SenderLink`) and a receiving end per upstream
(:class:`_ReceiverEnd`), woken by the same causes as those threads.
The engine thread is no task either: a wake-up is one ready callback
(:class:`_Wake`) that runs the core's passes and parks again.  A
message-hop costs one latency timer, no task switch, and an engine has
the same few tasks (report, bootstrap, watchdog) whatever its link
count.

The algorithm runs only inside the engine's passes (plus source tasks,
which never interleave mid-``process``), preserving the paper's
guarantee that algorithms need no thread-safe data structures.
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
from repro.core.stats import LinkStats
from repro.core.switch import ReceiverPort
from repro.errors import SimulationError
from repro.sim.kernel import Kernel, Task
from repro.sim.link import SimLink
from repro.sim.sync import SimEvent
from repro.telemetry import Telemetry


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


# States of a link end.  A sending end is IDLE (waiting for its send
# queue), BUSY (a run is due, running, throttled or stalled for good),
# BLOCKED (the window is full) or CLOSED.  A receiving end is IDLE
# (waiting for a push), BUSY or CLOSED.
_IDLE, _BUSY, _BLOCKED, _CLOSED = range(4)


class _SenderLink:
    """The sending end of one outbound link: a pump, not a task.

    It runs where the paper's sender thread would wake: a put into its
    idle send queue (through the queue's ``on_size_change``, which only
    an idle pump listens to), its throttle timer, and a freed window
    slot — the last synchronously, inside the receiving end's take.
    The core's ``_sent`` books each message it puts on the wire.  ``in_flight_since`` is the virtual
    time the current delivery started (None when idle), which the
    watchdog reads to catch silently-stalled links.
    """

    __slots__ = ("engine", "out", "link", "state", "msg", "sent_at", "timer",
                 "in_flight_since")

    def __init__(self, engine: "SimEngine", out: OutLink, link: SimLink) -> None:
        self.engine, self.out, self.link = engine, out, link
        self.msg = self.timer = self.in_flight_since = None  # msg: off the queue, not on the wire
        self.state, self.sent_at = _BUSY, 0.0
        link.on_take = self._on_take
        engine.kernel.call_soon(self._pump)

    def _on_size_change(self, delta: int) -> None:
        """The idle send queue's listener, attached only while IDLE: the
        first put wakes the pump and detaches it."""
        if delta > 0 and self.state == _IDLE:
            self.state = _BUSY
            self.out.queue.on_size_change = None
            self.engine.kernel.call_soon(self._pump)

    def _pump(self) -> None:
        """Deliver staged messages until the queue empties or the wire pushes back."""
        # A message already in hand means its throttle timer fired.
        if self.state == _CLOSED or (self.msg is not None and not self._deliver()):
            return
        engine, queue = self.engine, self.out.queue
        while engine._running and queue:
            self.state = _BUSY
            msg = self.msg = queue.get_nowait()
            now = self.in_flight_since = engine.kernel.now
            delay = engine.throttle.reserve_send(self.out.dest, msg.size, now)
            if delay > 0:
                if engine._ins is not None:
                    engine._ins.on_throttle_stall("up", delay)
                self.timer = engine.kernel.call_later(delay, self._pump)
                return
            if not self._deliver():
                return
        self.state = _IDLE
        queue.on_size_change = self._on_size_change

    def _deliver(self) -> bool:
        """Start the message in hand on the wire; True once it is there."""
        engine, link = self.engine, self.link
        if engine._ins is not None and link.full:
            engine._ins.backpressure[self.out.label] += 1
        if not link.alive:
            engine._drop_downstream(self.out.dest, notify="down")
        elif link.stalled:
            pass  # a silently-partitioned host: parked until the watchdog or a teardown
        elif link.full:
            link.backpressure_events += 1
            self.sent_at = engine.kernel.now  # the delivery starts now, not at insertion
            self.state = _BLOCKED
        else:
            self._push(engine.kernel.now)
            return True
        return False

    def _on_take(self) -> None:
        """The link's callback: a slot freed (push on the spot) or it broke."""
        if self.state != _BLOCKED:
            return
        self.state = _BUSY
        if self.link.alive:
            self._push(self.sent_at)
            self._pump()
        else:
            self.engine.kernel.call_soon(self._fail)

    def _fail(self) -> None:
        if self.state != _CLOSED:
            self.engine._drop_downstream(self.out.dest, notify="down")

    def _push(self, sent_at: float) -> None:
        msg = self.msg
        self.link.push(msg, sent_at)
        self.msg = self.in_flight_since = None
        self.engine._sent(self.out, [msg])

    def close(self) -> None:
        """The link left the table: break it; the message in hand is lost."""
        self.state = _CLOSED
        if self.timer is not None:
            self.timer.cancel()
        self.link.break_()
        if self.msg is not None:
            self.engine._record_loss(self.msg, self.out.stats)


class _ReceiverEnd:
    """The receiving end of one inbound link: callbacks, not a task.

    It takes the head of the window, waits out the propagation latency
    on one timer, applies the receive throttle and places the message
    with the core's ``_place`` (waiting for the port buffer's
    ``on_space`` while it is full), then takes the next.
    """

    __slots__ = ("engine", "link", "port", "state", "msg", "timer")

    def __init__(self, engine: "SimEngine", link: SimLink, port: ReceiverPort) -> None:
        self.engine, self.link, self.port = engine, link, port
        self.state, self.msg, self.timer = _IDLE, None, None
        link.on_push = self._on_push

    def _on_push(self) -> None:
        """The link's callback: a push landed, or the link broke."""
        if self.state == _IDLE:
            self.state = _BUSY
            if self.link.window:
                self._take(woken=True)
            else:
                self.engine.kernel.call_soon(self._drained)

    def _take(self, woken: bool) -> None:
        # A woken end starts on an event of its own (at ``now`` at the
        # latest); a busy one carries on at once if the message is due.
        # ``now + (sent_at + latency - now)`` is the float expression a
        # sleep until arrival computes, so timestamps stay bit-identical.
        kernel, link = self.engine.kernel, self.link
        self.msg, sent_at = link.window[0]
        now = kernel.now
        delay = sent_at + link.latency - now
        timed = delay > 0 or woken
        if timed:
            self.timer = kernel.call_at(now + delay if delay > 0 else now, self._arrive)
        link.take()  # a blocked sender refills the slot on the spot
        if not timed:
            self._arrive()

    def _arrive(self) -> None:
        engine = self.engine
        delay = engine.throttle.reserve_recv(self.msg.size, engine.kernel.now)
        if delay <= 0:
            return self._admit()
        if engine._ins is not None:
            engine._ins.on_throttle_stall("down", delay)
        self.timer = engine.kernel.call_later(delay, self._admit)

    def _admit(self) -> None:
        engine, link = self.engine, self.link
        peer = link.src
        if engine._upstream_links.get(peer) is not link:
            # Torn down (a re-dial superseded this link) while the
            # message was in hand: it dies with the link, counted.
            return self._lose()
        now = engine.kernel.now
        self.port.stats.throughput.record(self.msg.size, now)
        engine._last_recv_at[peer] = now
        self._put()

    def _put(self) -> None:
        if self.state == _CLOSED:  # a space callback that outlived the engine
            return
        buffer = self.port.buffer
        if buffer.closed:
            return self._lose()
        if not self.engine._place(self.port, [self.msg]):
            return buffer.on_space(partial(self.engine.kernel.call_soon, self._put))
        self._placed()

    def _placed(self) -> None:
        self.msg = None
        self.engine._wake.set()
        if self.link.window:
            self._take(woken=False)
        elif self.link.alive:
            self.state = _IDLE
        else:
            self._drained()

    def _drained(self) -> None:
        """The window is empty and the link broke: the upstream is gone."""
        if self.state != _CLOSED:
            self._close()
            if self.engine._upstream_links.get(self.link.src) is self.link:
                self.engine._drop_upstream(self.link.src, notify="up")

    def _lose(self) -> None:
        self._close()
        self.engine._count_wire_lost(self.link, self.msg, self.port.stats)

    def _close(self) -> None:
        self.state = _CLOSED
        del self.engine._receiving[self.link]

    def abort(self) -> None:
        """The engine terminated: count what this end holds, fire nothing more."""
        if self.timer is not None:
            self.timer.cancel()
        self._close() if self.msg is None else self._lose()


class _Wake:
    """The engine's wake-up flag: a parked engine resumes as one ready callback.

    ``is_set`` is False exactly while the engine is parked.  ``set`` on
    a parked engine does one ``call_soon(resume)``, so a wake-up takes
    one ready-deque slot at the instant and in the order it happened,
    and ``resume`` runs the core's passes and parks again: the engine
    needs no task.  A ``set`` while the engine is running, or already
    due, does nothing.
    """

    __slots__ = ("call_soon", "resume", "is_set")

    def __init__(self, kernel: Kernel, resume: Any) -> None:
        self.call_soon, self.resume, self.is_set = kernel.call_soon, resume, True

    def set(self) -> None:
        if not self.is_set:
            self.is_set = True
            self.call_soon(self.resume)


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
        super().__init__(node_id, algorithm, config, new_event=partial(SimEvent, kernel))
        self._wake = _Wake(kernel, self._resume)
        self._senders: dict[NodeId, _SenderLink] = {}
        self._upstream_links: dict[NodeId, SimLink] = {}
        #: every live receiving end, superseded links' included
        self._receiving: dict[SimLink, _ReceiverEnd] = {}
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
        self.kernel.call_soon(self._boot)
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
        for end in list(self._receiving.values()):
            end.abort()
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
        self._senders[dest] = _SenderLink(self, self._out[dest], link)

    def _close_link(self, peer: NodeId, outbound: bool) -> None:
        if outbound:
            sender = self._senders.pop(peer, None)
            if sender is not None:
                sender.close()
        else:
            self._upstream_links.pop(peer).break_()
            del self._last_recv_at[peer]

    def _request_shutdown(self) -> None:
        self.terminate()

    def _boot(self) -> None:
        # Table 1: start the TCP server, bootstrap from observer, then loop.
        self._send_boot()
        if self.config.bootstrap_refresh is not None:
            self._launch(self._bootstrap_loop(), name=f"{self._node_id}/boot")
        self._resume(boot=True)

    def _resume(self, boot: bool = False) -> None:
        """The engine loop's body for one wake-up: passes until none is
        left, then park until ``_wake.set()``.

        An exception out of an Algorithm hook fails the node as an
        engine task's would (:meth:`_fail`, as task ``<node>/engine``)
        and leaves ``kernel.run`` as :class:`SimulationError`.
        """
        try:
            if boot:
                self.algorithm.on_start()
            while self._running and not self._passes():
                pass
        except Exception as exc:
            self._fail(f"{self._node_id}/engine", exc)
            raise SimulationError(f"{self._node_id}/engine crashed") from exc
        self._wake.is_set = not self._running  # parked until the next set()

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
        self._receiving[link] = _ReceiverEnd(self, link, self._add_upstream(link.src))

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

    def _count_wire_lost(self, link: SimLink, in_hand: Message, stats: LinkStats) -> None:
        """This end of ``link`` is gone: the message in hand and whatever
        the wire still carries will never be placed, so they are lost."""
        self._record_loss(in_hand, stats)
        for msg, _sent_at in link.window:
            self._record_loss(msg, stats)
        link.window.clear()

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
                    # the receiving end drains the window, then drops the upstream
                    self._upstream_links[peer].break_()
            # Sender side: a delivery stuck longer than the timeout means the
            # downstream is silently gone (stalled link) — tear it down.
            for sender in list(self._senders.values()):
                started = sender.in_flight_since
                if started is not None and now - started > timeout:
                    self._drop_downstream(sender.out.dest, notify="down")

    def __repr__(self) -> str:
        state = "running" if self._running else ("terminated" if self._terminated else "new")
        return f"SimEngine({self._node_id}, {state})"
