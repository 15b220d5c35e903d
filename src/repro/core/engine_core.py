"""The shared switching engine core, independent of any transport.

The paper describes **one** engine design — control messages drained
from the publicized port, data switched from receiver buffers to sender
buffers in weighted round-robin order, bounded buffers producing back
pressure, sources paced by flow control, the engine (not the transport)
keeping the connection table and running the domino teardown — and
realizes it over different transports.  This module is that single
design.  :class:`EngineCore` owns

- every piece of switching semantics;
- the **link table**: per destination an :class:`OutLink` (bounded send
  queue + :class:`LinkStats`), created at the first ``send()`` so
  messages stage in order while the backend is still dialing, and per
  upstream a :class:`ReceiverPort` (buffer + stats);
- **link teardown**: :meth:`EngineCore._drop_downstream` and
  :meth:`EngineCore._drop_upstream` are the only places a link leaves
  the table — every failure, disconnect and shutdown path of both
  backends goes through them, so whatever a dying link still buffers is
  counted in ``lost_messages`` exactly once;
- the **link-end ledger**: :meth:`EngineCore._place` puts what a
  receiving end took off its link into the port buffer (or the control
  port) and :meth:`EngineCore._sent` books what a sending end wrote, so
  the per-hop accounting and telemetry are the same on every transport;
- the **task set**: :meth:`EngineCore._launch` tracks every background
  task in a self-pruning set that shutdown cancels in one call.

A concrete engine (:class:`repro.sim.engine.SimEngine` over the
discrete-event kernel, :class:`repro.net.engine.AsyncioEngine` over
asyncio TCP) meets the core at one seam and nothing else:

- the **Clock** — :meth:`now`, :meth:`_sleep` (a zero delay is the
  engine loop's yield between busy rounds), :meth:`_call_later`,
  :meth:`_spawn` (the only place a backend creates a task);
- the **Transport** — :meth:`_open_link` / :meth:`_close_link` (attach
  or release whatever carries a table entry), :meth:`send_to_observer`,
  :meth:`_request_shutdown`;
- four **pacing values** — ``CREDIT_SCALE``, ``ROUNDS_PER_WAKEUP``,
  ``SOURCE_BURST``, ``SOURCE_INTERVAL`` — set per backend.

Backends must *not* reimplement anything the core owns:
``tests/test_engine_parity_surface.py`` lists these twelve override
points once, asserts the count, walks both backends' ASTs for
core-owned methods, and fails if a backend creates a task anywhere but
in ``_spawn``.

Every buffer is a :class:`~repro.core.buffer.BoundedQueue`, which never
blocks, so it is the same on both backends.  The engine loop does park,
so the backend hands the constructor an event factory: any
level-triggered flag with the :class:`WakeEvent` surface (``SimEvent``
in the simulator, ``asyncio.Event`` live).
"""

from __future__ import annotations

import logging
from abc import ABC, abstractmethod
from functools import partial
from typing import Any, Callable, Coroutine, Iterable, Protocol

from repro.core.algorithm import Algorithm, Disposition
from repro.core.bandwidth import NodeThrottle
from repro.core.buffer import BoundedQueue
from repro.core.ids import CONTROL_APP, AppId, NodeId
from repro.core.message import Message
from repro.core.msgtypes import MsgType, is_engine_type
from repro.core.stats import LinkStats, LinkStatsSnapshot
from repro.core.switch import PendingForward, ReceiverPort, SwitchScheduler, drop_dest
from repro.telemetry.tracing import EventType

#: pause between emissions of a source that has no downstream link and
#: a zero ``SOURCE_INTERVAL`` — nobody to talk to; do not spin
IDLE_SOURCE_PACING = 0.01


class WakeEvent(Protocol):
    """The level-triggered flag surface (``SimEvent`` / ``asyncio.Event``)."""

    def set(self) -> None: ...
    def clear(self) -> None: ...
    async def wait(self) -> Any: ...


class OutLink:
    """Core-side state of one outbound link: send queue and statistics.

    Exists from the first ``send()``/connect toward ``dest`` until
    :meth:`EngineCore._drop_downstream`; the backend's transport drains
    ``queue`` once attached.
    """

    __slots__ = ("dest", "label", "queue", "stats")

    def __init__(self, dest: NodeId, queue: BoundedQueue[Message]) -> None:
        self.dest = dest
        #: cached ``str(dest)`` for report keys and telemetry labels
        self.label = str(dest)
        self.queue = queue
        self.stats = LinkStats()


class EngineCore(ABC):
    """One overlay node's switching semantics, shared by every transport.

    A backend constructs the core with a factory for its event type
    (whose blocking flavour matches the backend's scheduler) and
    implements the abstract Clock/Transport methods.
    The core then runs the engine loop, the weighted-round-robin
    switch, pending-forward retries, engine-owned control handling,
    status reporting, source pacing, the link table with its teardown,
    the background-task set and all telemetry emission.
    """

    # Pacing values, set per backend.  The defaults keep per-message
    # granularity (the simulator's figures observe the fine-grained
    # interleaving and virtual-clock wakeups cost nothing); the asyncio
    # backend raises the first three to amortize per-wakeup cost.
    #: multiplier on port weights at each credit epoch.  Fairness between
    #: upstreams is a ratio of weights, so scaling every allowance
    #: equally leaves it intact; only the interleaving coarsens.
    CREDIT_SCALE = 1
    #: switch rounds one engine wakeup may run.  Bounded even when large:
    #: the extra rounds consume the (bounded) receive buffers and cannot
    #: refill them, since IO tasks only run after the engine yields.
    ROUNDS_PER_WAKEUP = 1
    #: messages a source emits per wakeup while a downstream link exists.
    #: Flow control still applies per message, so a full send buffer
    #: parks the whole wave until space frees up.
    SOURCE_BURST = 1
    #: pause between two source wakeups; zero only yields.  Virtual time
    #: needs a positive floor, so the simulator sets its configured
    #: ``source_interval`` here.
    SOURCE_INTERVAL = 0.0

    def __init__(
        self,
        node_id: NodeId,
        algorithm: Algorithm,
        config: Any,
        new_event: Callable[[], WakeEvent],
    ) -> None:
        self._node_id = node_id
        self.algorithm = algorithm
        self.config = config
        self.throttle = NodeThrottle(config.bandwidth)
        self._scheduler = SwitchScheduler()
        self._control: BoundedQueue[Message] = BoundedQueue()  # the publicized port
        self._wake = new_event()
        self._send_space = new_event()
        self._running = False
        #: the engine loop waits on ``_wake`` with nothing left to switch
        self._parked = False
        #: outbound link table, in creation order
        self._out: dict[NodeId, OutLink] = {}
        #: every unfinished background task, in launch order
        self._tasks: dict[Any, None] = {}
        self._sources: dict[AppId, Any] = {}
        self._local_apps: set[AppId] = set()
        self._app_upstreams: dict[AppId, set[NodeId]] = {}
        self._app_downstreams: dict[AppId, set[NodeId]] = {}
        # switching context: which receiver port (or source) produced the
        # message the algorithm is currently processing
        self._current_port: ReceiverPort | None = None
        self._source_pending: list[PendingForward] | None = None
        self._lost_messages = 0
        self._lost_bytes = 0
        # opt-in telemetry; when off, every hot-path hook is one `is None`.
        # Backends whose identity is only final later (port-0 binding)
        # call _bind_instruments once the node id is settled.
        self._ins = None
        self._peer_strs: dict[NodeId, str] = {}
        #: data-message send() calls observed while the algorithm runs,
        #: used to recognize local delivery (processed without re-sending)
        self._data_sends = 0

    def _bind_instruments(self) -> None:
        tel = self.config.telemetry
        if tel is not None:
            self._ins = tel.instruments_for(self._node_id)

    # ----------------------------------------------------------------------- Clock

    @abstractmethod
    def now(self) -> float:
        """Current time on this backend's clock (virtual or monotonic)."""

    @abstractmethod
    async def _sleep(self, delay: float) -> None:
        """Suspend the calling task for ``delay`` seconds.

        The engine loop sleeps zero seconds between busy rounds to let
        IO tasks run; on a virtual clock, where no time passing means
        nothing can happen, that returns without suspending.
        """

    @abstractmethod
    def _call_later(self, delay: float, callback: Any, *args: Any) -> None:
        """Invoke ``callback(*args)`` after ``delay`` seconds."""

    @abstractmethod
    def _spawn(self, coro: Coroutine, name: str) -> Any:
        """Create a cancellable task running ``coro``.

        The only place a backend creates a task, and only
        :meth:`_launch` calls it.  The task must offer ``cancel()`` and
        ``add_done_callback(fn)`` (``fn`` receives the task).
        """

    # ------------------------------------------------------------------- Transport

    @abstractmethod
    def _open_link(self, dest: NodeId) -> None:
        """Begin attaching a transport behind the new ``_out[dest]``.

        May complete later (a dial task).  On failure — synchronous or
        not — the backend calls ``_drop_downstream(dest, notify="down")``
        so whatever was staged meanwhile is counted lost.
        """

    @abstractmethod
    def _close_link(self, peer: NodeId, outbound: bool) -> None:
        """Release whatever transport carries the just-dropped link.

        Called by :meth:`_drop_downstream` (``outbound=True``) and
        :meth:`_drop_upstream` (``False``) after the table entry is
        gone; must tolerate a transport that is already closed, still
        dialing, or absent.
        """

    @abstractmethod
    def send_to_observer(self, msg: Message) -> None:
        """Deliver a message to the observer over this backend's channel."""

    @abstractmethod
    def _request_shutdown(self) -> None:
        """Begin this node's graceful termination."""

    # ------------------------------------------------------------- EngineServices

    @property
    def node_id(self) -> NodeId:
        """This node's publicized identity."""
        return self._node_id

    @property
    def running(self) -> bool:
        """True between start and termination."""
        return self._running

    def send(self, msg: Message, dest: NodeId) -> None:
        """The single engine entry point available to algorithms.

        ``send`` never raises and never reports failure synchronously:
        abnormal outcomes surface later as engine-produced messages
        (Section 2.3).  Data messages respect sender-buffer bounds and
        participate in back pressure; other (small protocol) messages
        are never blocked, so control traffic cannot deadlock behind
        data.
        """
        if not self._running:
            return
        if dest == self._node_id:
            self._control.put_force(msg)
            self._wake.set()
            return
        if self._ins is not None and msg.type == MsgType.DATA:
            self._data_sends += 1
        link = self._out.get(dest)
        if link is None:
            self._connect(dest, first=msg)
        else:
            self._stage(msg, link)

    def _stage(self, msg: Message, link: OutLink) -> None:
        """Enqueue one outbound message on a link's send queue.

        Data respects the queue bound (deferring on overflow so the
        switch retries next round); control traffic is forced past it.
        """
        if msg.type == MsgType.DATA:
            self._track_downstream(msg.app, link.dest)
            if not link.queue.put_nowait(msg):
                self._defer_data(msg, link.dest)
        else:
            link.queue.put_force(msg)

    def upstreams(self) -> list[NodeId]:
        """Peers with a receiver port on this node."""
        return [port.peer for port in self._scheduler.ports]

    def downstreams(self) -> list[NodeId]:
        """Peers this node holds an outbound link to (attached or dialing)."""
        return list(self._out)

    def disconnect(self, dest: NodeId) -> None:
        """Gracefully tear down the link to ``dest`` (if any).

        A deliberate local action, so no BROKEN_LINK is raised here (the
        remote side still observes the closed transport through its own
        failure path); whatever the send queue still held is counted lost.
        """
        self._drop_downstream(dest)

    def link_stats(self, peer: NodeId) -> LinkStatsSnapshot | None:
        """QoS snapshot for the link to/from ``peer`` (outgoing preferred)."""
        stats = self._stats_out(peer) or self._stats_in(peer)
        return None if stats is None else stats.snapshot(self.now())

    def _stats_in(self, peer: NodeId) -> LinkStats | None:
        port = self._scheduler.get_port(peer)
        return None if port is None else port.stats

    def _stats_out(self, peer: NodeId) -> LinkStats | None:
        link = self._out.get(peer)
        return None if link is None else link.stats

    def start_source(self, app: AppId, payload_size: int) -> None:
        """Deploy a back-to-back application data source here."""
        if app in self._sources or not self._running:
            return
        self._local_apps.add(app)
        self._sources[app] = self._launch(
            self._source_loop(app, payload_size), name=f"{self._node_id}/source-{app}"
        )

    def stop_source(self, app: AppId) -> None:
        """Terminate a deployed source and tell downstreams it is gone."""
        task = self._sources.pop(app, None)
        self._local_apps.discard(app)
        if task is not None:
            task.cancel()
        self._broadcast_broken_source(app)

    def set_timer(self, delay: float, token: int = 0) -> None:
        """Deliver a ``TIMER`` message to the algorithm after ``delay``."""
        msg = Message.with_fields(MsgType.TIMER, self._node_id, CONTROL_APP, token=token)
        self._call_later(delay, self._enqueue_notification, msg)

    def set_port_weight(self, peer: NodeId, weight: int) -> None:
        """Dynamically retune a receiver port's round-robin weight."""
        self._scheduler.set_weight(peer, weight)
        self._wake.set()

    def measure(self, peer: NodeId) -> None:
        """Probe RTT to ``peer``; the algorithm receives MEASURE_REPLY.

        The probe is a tiny HEARTBEAT request/echo over the persistent
        connection — used only on demand, never as a periodic heartbeat.
        """
        probe = Message.with_fields(
            MsgType.HEARTBEAT, self._node_id, CONTROL_APP,
            probe="req", t0=self.now(), origin=str(self._node_id),
        )
        self.send(probe, peer)

    def recv_rate(self, peer: NodeId) -> float:
        """Current incoming throughput from ``peer`` in bytes/second."""
        stats = self._stats_in(peer)
        return 0.0 if stats is None else stats.throughput.rate(self.now())

    def send_rate(self, peer: NodeId) -> float:
        """Current outgoing throughput to ``peer`` in bytes/second."""
        stats = self._stats_out(peer)
        return 0.0 if stats is None else stats.throughput.rate(self.now())

    def buffer_levels(self) -> dict[str, int]:
        """Receiver/sender buffer occupancy (for the observer's display)."""
        levels = {f"recv:{port.peer}": len(port.buffer) for port in self._scheduler.ports}
        for link in self._out.values():
            levels[f"send:{link.label}"] = len(link.queue)
        return levels

    def queue_snapshot(self) -> dict[str, dict]:
        """O(1)-per-port queue depths and buffered bytes.

        ``recv`` maps each upstream label to ``[depth, bytes]`` (the
        switch's incrementally maintained gauges — no buffer is
        scanned); ``send`` maps each downstream label to its outbound
        buffer depth.  Routing algorithms poll this every tick to feed
        tunnel-occupancy penalties, and both backends embed it in the
        periodic STATUS report as the ``queues`` field.
        """
        recv = {
            label: [depth, nbytes]
            for label, (depth, nbytes) in self._scheduler.queue_snapshot().items()
        }
        return {
            "recv": recv,
            "send": self._send_buffer_levels(),
            "total_messages": self._scheduler.total_buffered(),
            "total_bytes": self._scheduler.total_buffered_bytes(),
        }

    # --------------------------------------------------------------------- engine

    async def _engine_loop(self) -> None:
        """Run passes while they find work; park the moment none is left.

        Whatever can create work sets ``_wake``: a receiver placing
        messages, a notification, a sender freeing the slot a blocked
        port waits for (:meth:`_send_space_freed`), a link going away.
        So a pass that leaves the control port empty and the scheduler
        without work has nothing to re-look at, and a pass that moved
        nothing can only be unblocked by one of those events.  (A
        receiver may instead run the passes itself while the loop is
        parked: see :meth:`_passes`.)
        """
        self.algorithm.on_start()
        while self._running:
            if self._passes():
                # No await happened since the state we just looked at, so
                # clear-then-wait cannot lose a wake-up (cooperative tasks).
                self._wake.clear()
                self._parked = True
                await self._wake.wait()
                self._parked = False
            else:
                await self._sleep(0)  # let IO tasks breathe under load

    def _passes(self) -> bool:
        """One wake-up's passes; True once none is left (the loop may park).

        Keeps switching while buffered work remains, up to
        ``ROUNDS_PER_WAKEUP`` passes, so the senders flush the whole
        sweep as one batch.  The engine loop runs them at every wake-up;
        a backend may run them where work lands while the loop is
        :attr:`_parked`, instead of waking it.
        """
        control = self._control
        scheduler = self._scheduler
        budget = self.ROUNDS_PER_WAKEUP
        while self._running and budget:
            budget -= 1
            progressed = self._drain_control()
            if self._switch_round():
                progressed = True
            if not progressed or (control.is_empty and not scheduler.has_work()):
                return True
        return False

    def _drain_control(self) -> bool:
        progressed = False
        while self._running and not self._control.is_empty:
            msg = self._control.get_nowait()
            progressed = True
            if is_engine_type(msg.type):
                self._engine_process(msg)
            else:
                self.algorithm.process(msg)
        return progressed

    def _engine_process(self, msg: Message) -> None:
        """Handle engine-owned control types (``Engine::process`` in Table 1)."""
        if msg.type == MsgType.TERMINATE:
            self._request_shutdown()
        elif msg.type == MsgType.SET_BANDWIDTH:
            self._apply_bandwidth(msg)
        elif msg.type == MsgType.CONNECT:
            self._connect(NodeId.parse(msg.fields()["dest"]))
        elif msg.type == MsgType.DISCONNECT:
            self.disconnect(NodeId.parse(msg.fields()["dest"]))
        elif msg.type == MsgType.REQUEST:
            self.send_to_observer(self._status_report())
            self.algorithm.process(msg)  # let the algorithm add its own report
        elif msg.type == MsgType.HEARTBEAT:
            self._handle_probe(msg)

    def _handle_probe(self, msg: Message) -> None:
        fields = msg.fields()
        origin = NodeId.parse(fields["origin"])
        if fields.get("probe") == "req":
            extra = {}
            if "liveness" in fields:
                extra["liveness"] = fields["liveness"]
            echo = Message.with_fields(
                MsgType.HEARTBEAT, self._node_id, CONTROL_APP,
                probe="resp", t0=fields["t0"], origin=fields["origin"], **extra,
            )
            self.send(echo, origin)
        elif fields.get("probe") == "resp":
            if fields.get("liveness"):
                # Watchdog traffic: receiving the frame already reset the
                # peer's inactivity clock; the algorithm never sees it.
                return
            peer = msg.sender
            rtt = self.now() - float(fields["t0"])
            self._enqueue_notification(Message.with_fields(
                MsgType.MEASURE_REPLY, self._node_id, CONTROL_APP,
                peer=str(peer), rtt=rtt, send_rate=self.send_rate(peer),
            ))

    def _apply_bandwidth(self, msg: Message) -> None:
        fields = msg.fields()
        category, rate = fields["category"], fields["rate"]
        if category == "total":
            self.throttle.set_total(rate)
        elif category == "up":
            self.throttle.set_up(rate)
        elif category == "down":
            self.throttle.set_down(rate)
        elif category == "link":
            self.throttle.set_link(NodeId.parse(fields["peer"]), rate)
        else:
            raise ValueError(f"unknown bandwidth category: {category!r}")

    def _status_report(self) -> Message:
        now = self.now()
        fields = dict(
            node=str(self._node_id),
            upstreams=[str(p) for p in self.upstreams()],
            downstreams=[str(d) for d in self.downstreams()],
            recv_buffers=self._recv_buffer_levels(),
            send_buffers=self._send_buffer_levels(),
            recv_rates={
                p.label: p.stats.throughput.rate(now) for p in self._scheduler.ports_view()
            },
            send_rates={
                link.label: link.stats.throughput.rate(now) for link in self._out.values()
            },
            lost_messages=self._lost_messages,
            lost_bytes=self._lost_bytes,
            apps=sorted(self._local_apps | set(self._app_upstreams)),
            queues=self.queue_snapshot(),
        )
        if self.config.telemetry is not None:
            self._refresh_buffer_gauges()
            fields["metrics"] = self.config.telemetry.snapshot(node=str(self._node_id))
        return Message.with_fields(MsgType.STATUS, self._node_id, CONTROL_APP, **fields)

    def _recv_buffer_levels(self) -> dict[str, int]:
        return {p.label: len(p.buffer) for p in self._scheduler.ports_view()}

    def _send_buffer_levels(self) -> dict[str, int]:
        return {link.label: len(link.queue) for link in self._out.values()}

    def _refresh_buffer_gauges(self) -> None:
        if self._ins is None:
            return
        self._ins.set_buffer_gauges(self._recv_buffer_levels(), self._send_buffer_levels())

    # --------------------------------------------------------------------- switch

    def _switch_round(self) -> bool:
        """One weighted (deficit) round-robin pass over all receiver ports.

        Credits are consumed as messages depart a port, so under output
        congestion — where every message traverses the pending path —
        competing upstreams still share the output in weight proportion.
        A new credit epoch opens at the head of the pass that needs it:
        once every port that still has work has spent its credit.  (A
        port with credit left keeps its claim on upcoming sender-buffer
        slots, which is exactly what makes the weight ratio hold under
        output congestion; a spent sibling then sits the pass out and is
        counted as a credit stall.)
        """
        progressed = False
        ins = self._ins
        scheduler = self._scheduler
        if scheduler.has_work():  # O(1); false on an idle wake-up
            spent = False
            for port in scheduler.ports_view():
                if port.has_work():
                    spent = port.credit <= 0
                    if not spent:
                        break
            if spent:
                scheduler.replenish_credits(self.CREDIT_SCALE)
                if ins is not None:
                    ins.n_credit_epochs += 1
        moved = 0
        for port in scheduler.rotation():
            if not port.has_work():
                continue
            if port.credit <= 0:
                if ins is not None:
                    ins.credit_stalls[port.label] += 1
                    epoch = scheduler.epochs
                    if ins.tracer.enabled and port.stall_epoch != epoch:
                        port.stall_epoch = epoch
                        ins.trace_port(self.now(), EventType.CREDIT_EXHAUSTED, port.label)
                continue
            if port.pending:
                before = len(port.pending)
                self._retry_pending(port)
                completed = before - len(port.pending)
                if completed:
                    port.credit -= completed
                    progressed = True
                if port.blocked or port.credit <= 0:
                    continue
            while port.credit > 0 and not port.blocked and not port.buffer.is_empty:
                msg = port.buffer.get_nowait()  # type: ignore[attr-defined]
                port.note_bytes(-msg.size)
                port.switched += 1
                moved += 1
                if ins is not None:
                    self._record_pick(port, msg)
                self._track_upstream(msg.app, port.peer)
                self._current_port = port
                sends_before = self._data_sends
                try:
                    disposition = self.algorithm.process(msg)
                finally:
                    self._current_port = None
                if disposition is Disposition.HOLD:
                    port.held += 1
                elif ins is not None and self._data_sends == sends_before:
                    ins.n_delivers += 1
                    if ins.tracer.enabled:
                        ins.trace_msg(self.now(), EventType.DELIVER, msg)
                progressed = True
                if not port.blocked:
                    port.credit -= 1
        if ins is not None:
            ins.n_switch_rounds += 1
            if moved:
                ins.observe_batch(float(moved))
        return progressed

    def _peer_str(self, node: NodeId) -> str:
        """Cached ``str(node)`` for telemetry labels (NodeId.__str__ formats)."""
        label = self._peer_strs.get(node)
        if label is None:
            label = self._peer_strs[node] = str(node)
        return label

    def _record_pick(self, port: ReceiverPort, msg: Message) -> None:
        """Telemetry for one switched message (queue wait + pick event)."""
        ins = self._ins
        now = self.now()
        ins.switched[port.label] += 1
        times = port.wait_times
        if times:
            ins.observe_wait(now - times.popleft())
        if ins.tracer.enabled:
            ins.trace_msg(now, EventType.SWITCH_PICK, msg, port.label)

    def _retry_pending(self, port: ReceiverPort) -> bool:
        progressed = False
        ins = self._ins
        for forward in port.pending:
            progressed = self._try_forward(forward) or progressed
            if ins is not None:
                ins.n_retries += 1
                if forward.done:
                    ins.n_retry_completions += 1
                if ins.tracer.enabled:
                    ins.trace_retry(self.now(), forward.msg, forward.done)
        port.prune_pending()
        return progressed

    def _try_forward(self, forward: PendingForward) -> bool:
        placed_any = False
        still_remaining: list[NodeId] = []
        for dest in forward.remaining:
            link = self._out.get(dest)
            if link is None:
                placed_any = True  # destination vanished; drop the obligation
                continue
            if link.queue.put_nowait(forward.msg):
                placed_any = True
            else:
                still_remaining.append(dest)
        forward.remaining = still_remaining
        return placed_any

    def _defer_data(self, msg: Message, dest: NodeId) -> None:
        """A data send hit a full sender buffer: remember the remaining sender."""
        ins = self._ins
        if ins is not None:
            label = self._peer_str(dest)
            ins.defers[label] += 1
            if ins.tracer.enabled:
                ins.trace_msg(self.now(), EventType.DEFER, msg, label)
        if self._current_port is not None:
            self._current_port.deferred += 1
            pending = self._current_port.pending
            if pending and pending[-1].msg is msg:
                pending[-1].remaining.append(dest)
            else:
                self._current_port.add_pending(PendingForward(msg, [dest]))
        elif self._source_pending is not None:
            if self._source_pending and self._source_pending[-1].msg is msg:
                self._source_pending[-1].remaining.append(dest)
            else:
                self._source_pending.append(PendingForward(msg, [dest]))
        else:
            # No switching context (e.g. algorithm reacting to a control
            # message): queue unconditionally rather than drop.
            link = self._out.get(dest)
            if link is not None:
                link.queue.put_force(msg)

    # ----------------------------------------------------------------------- links

    def _connect(self, dest: NodeId, first: Message | None = None) -> None:
        """Ensure an outbound link to ``dest``; ``first`` is staged on a new one.

        The link and its bounded send queue exist from here on, so
        everything sent while the backend is still dialing stages in
        order, is flow-controlled like any full sender buffer, and shows
        in :meth:`queue_snapshot`.
        """
        if dest in self._out or not self._running:
            return
        link = self._add_downstream(dest)
        if first is not None:
            self._stage(first, link)
        self._open_link(dest)

    def _add_downstream(self, dest: NodeId) -> OutLink:
        """Create the table entry (and bounded send queue) toward ``dest``."""
        link = self._out[dest] = OutLink(dest, BoundedQueue(self.config.buffer_capacity))
        return link

    def _add_upstream(self, peer: NodeId, announce: bool = True) -> ReceiverPort:
        """Register the receiver port for a new inbound link."""
        port = ReceiverPort(peer=peer, buffer=BoundedQueue(self.config.buffer_capacity))
        self._scheduler.add_port(port)
        if announce:
            self._enqueue_notification(Message.with_fields(
                MsgType.NEW_UPSTREAM, self._node_id, CONTROL_APP, peer=port.label
            ))
        return port

    def _drop_downstream(
        self, dest: NodeId, notify: str | None = None, undelivered: Iterable[Message] = ()
    ) -> None:
        """The one way an outbound link leaves the table.

        Failure, disconnect and shutdown paths of both backends all end
        here: the transport is released; ``undelivered`` (what the
        transport had taken but not sent), everything still staged and
        every pending forward's obligation toward ``dest`` are counted
        lost, and those obligations are pruned so nothing stays parked
        on a link that no longer exists.
        ``notify`` names the BROKEN_LINK direction for failures; a
        deliberate local teardown passes ``None``.
        """
        link = self._out.pop(dest, None)
        if link is None:
            return
        self._close_link(dest, outbound=True)
        owed = [msg for port in self._scheduler.ports for msg in port.discard_dest(dest)]
        if self._source_pending is not None:
            owed += drop_dest(self._source_pending, dest)
        for msg in (*undelivered, *link.queue.drain(), *owed):
            self._record_loss(msg, link.stats)
        link.queue.close()
        self.throttle.drop_link(dest)
        for peers in self._app_downstreams.values():
            peers.discard(dest)
        if notify is not None:
            self._notify_broken_link(dest, notify)
        self._send_space.set()
        self._wake.set()

    def _send_space_freed(self) -> None:
        """A sender took messages off its queue: wake whoever waits for room.

        :meth:`_sent` calls this after every flush.  Sources parked on flow
        control re-try; the engine is woken only if some port is blocked
        on a pending forward — nothing else in a pass depends on sender
        space, so any other wake-up would find no work.
        """
        self._send_space.set()
        if self._scheduler.pending_ports():
            self._wake.set()

    def _drop_upstream(self, peer: NodeId, notify: str | None = None) -> None:
        """The one way an inbound link leaves the table.

        Whatever the receiver buffer still holds, and every delivery a
        pending forward of the port still owed (nobody retries it now),
        is counted lost.  A failure (``notify`` given) also raises
        BROKEN_LINK and runs the domino: every application fed
        exclusively through ``peer`` has lost its source.
        """
        port = self._scheduler.remove_port(peer)
        if port is None:
            return
        self._close_link(peer, outbound=False)
        owed = [forward.msg for forward in port.pending for _ in forward.remaining]
        for msg in (*port.buffer.drain(), *owed):
            self._record_loss(msg, port.stats)
        port.buffer.close()
        if notify is not None:
            self._notify_broken_link(peer, notify)
            self._domino_upstream_lost(peer)
        self._wake.set()

    # ------------------------------------------------------------------ link ends

    def _place(self, port: ReceiverPort, msgs: list[Message]) -> int:
        """Place a run a receiving end took off its link; returns how many fit.

        Data goes into ``port``'s buffer until it is full, and the caller
        keeps the rest in hand until the buffer's ``on_space``.  Control
        always fits: it goes to the publicized port, and a BROKEN_SOURCE
        first runs the domino.  Waking the engine is the caller's job.
        """
        buffer, ins, data = port.buffer, self._ins, MsgType.DATA
        if ins is None:
            nbytes = 0
            for msg in msgs:
                if msg._type != data:
                    break
                nbytes += msg.size
            else:  # all data: one bulk append per buffer-space window
                placed = buffer.put_many_nowait(msgs)
                if placed:
                    port.note_bytes(nbytes if placed == len(msgs)
                                    else sum(msg.size for msg in msgs[:placed]))
                return placed
        placed = 0
        for msg in msgs:
            if msg._type == data:
                if not buffer.put_nowait(msg):
                    break
                port.note_bytes(msg.size)
                if ins is not None:
                    now = self.now()
                    ins.enqueued[port.label] += 1
                    port.wait_times.append(now)
                    msg._hop_t0 = now  # this hop's clock starts here
                    if ins.tracer.enabled:
                        ins.trace_msg(now, EventType.ENQUEUE, msg, port.label)
            else:
                if msg._type == MsgType.BROKEN_SOURCE:
                    self._propagate_broken_source(msg, port.peer)
                self._control.put_force(msg)
            placed += 1
        return placed

    def _sent(self, out: OutLink, msgs: list[Message]) -> None:
        """Book a run a sending end wrote to its link, then free its room."""
        now = self.now()
        nbytes = 0
        for msg in msgs:
            nbytes += msg.size
        out.stats.throughput.record_bulk(nbytes, len(msgs), now)
        ins = self._ins
        if ins is not None:
            label, data = out.label, MsgType.DATA
            for msg in msgs:
                if msg._type == data:
                    ins.forwarded[label] += 1
                    t0 = msg._hop_t0
                    if t0 is not None:
                        ins.observe_hop(now - t0 if now > t0 else 0.0)
                    if ins.tracer.enabled:
                        ins.trace_msg(now, EventType.FORWARD, msg, label)
        self._send_space_freed()

    # ----------------------------------------------------------------------- tasks

    def _launch(self, coro: Coroutine, name: str) -> Any:
        """Run ``coro`` as a background task owned by this engine.

        Finished tasks prune themselves, so the set holds exactly the
        unfinished ones and :meth:`_teardown` cancels them in one call.
        """
        task = self._spawn(coro, name)
        self._tasks[task] = None
        task.add_done_callback(partial(self._task_done, name))
        return task

    def _task_done(self, name: str, task: Any) -> None:
        self._tasks.pop(task, None)
        exc = None if task.cancelled() else task.exception()
        if exc is not None:
            self._fail(name, exc)

    def _fail(self, name: str, exc: BaseException) -> None:
        """An exception escaped an Algorithm hook (or the engine itself).

        Count and trace it, then fail the node loudly so neighbours see
        its links drop and the domino teardown runs.  (The DES kernel
        also re-raises it from ``run``.)
        """
        logging.getLogger(__name__).error("%s: task %r failed", self._node_id, name, exc_info=exc)
        if self._ins is not None:
            self._ins.on_task_error(self.now(), name, exc)
        if self._running:
            self._request_shutdown()

    def _teardown(self, keep: Any = None) -> list:
        """Drop every link and cancel every task (``stop``/``terminate``).

        Returns the cancelled tasks so an awaiting backend can reap
        them; ``keep`` is the task running the shutdown itself.
        """
        self._sources.clear()
        for dest in list(self._out):
            self._drop_downstream(dest)
        for port in self._scheduler.ports:
            self._drop_upstream(port.peer)
        self._wake.set()
        self._send_space.set()
        tasks = [task for task in self._tasks if task is not keep]
        self._tasks.clear()
        for task in tasks:
            task.cancel()
        return tasks

    # --------------------------------------------------------------------- source

    async def _source_loop(self, app: AppId, payload_size: int) -> None:
        """Produce back-to-back data messages, flow-controlled by send buffers."""
        seq = 0
        while self._running and app in self._local_apps:
            for _ in range(self.SOURCE_BURST if self._out else 1):
                if not (self._running and app in self._local_apps):
                    break
                payload = self.algorithm.produce_payload(app, seq, payload_size)
                msg = Message(MsgType.DATA, self._node_id, app, payload, seq=seq)
                seq += 1
                if self._ins is not None:
                    self._ins.n_source += 1
                    msg._hop_t0 = self.now()  # first hop starts at the source
                    if self._ins.tracer.enabled:
                        self._ins.trace_msg(self.now(), EventType.SOURCE_EMIT, msg)
                self._source_pending = []
                try:
                    self.algorithm.process(msg)
                    while any(f.remaining for f in self._source_pending) and self._running:
                        self._send_space.clear()
                        await self._send_space.wait()
                        for forward in self._source_pending:
                            self._try_forward(forward)
                        self._source_pending = [f for f in self._source_pending if f.remaining]
                finally:
                    self._source_pending = None
            # Pace the producer: bounds event volume when sends are never
            # flow-controlled.
            if self._out or self.SOURCE_INTERVAL > 0:
                await self._sleep(self.SOURCE_INTERVAL)
            else:
                await self._sleep(IDLE_SOURCE_PACING)

    def _broadcast_broken_source(self, app: AppId) -> None:
        downstreams = self._app_downstreams.pop(app, set())
        if self._ins is not None and downstreams:
            self._ins.n_domino += 1
        notice = Message.with_fields(
            MsgType.BROKEN_SOURCE, self._node_id, app, app=app, origin=str(self._node_id)
        )
        for dest in downstreams:
            link = self._out.get(dest)
            if link is not None:
                link.queue.put_force(notice.clone())

    def _propagate_broken_source(self, msg: Message, peer: NodeId) -> None:
        """Domino effect: the path through ``peer`` lost its source.

        Only when the *last* upstream feeding the application is gone
        (and we are not the source ourselves) does the failure cascade
        to our downstreams — multi-path topologies keep flowing.
        """
        app = AppId(msg.fields().get("app", msg.app))
        upstreams = self._app_upstreams.get(app)
        if upstreams is not None:
            upstreams.discard(peer)
            if upstreams:
                return
            del self._app_upstreams[app]
        if app not in self._local_apps:
            self._broadcast_broken_source(app)

    def _domino_upstream_lost(self, peer: NodeId) -> None:
        """Cascade for every application fed exclusively by a dead upstream."""
        for app, ups in list(self._app_upstreams.items()):
            ups.discard(peer)
            if not ups and app not in self._local_apps:
                del self._app_upstreams[app]
                self._broadcast_broken_source(app)

    # -------------------------------------------------------------------- reports

    async def _report_loop(self) -> None:
        """Periodically report per-link throughput to the algorithm."""
        while self._running:
            await self._sleep(self.config.report_interval)
            if not self._running:
                return
            self._refresh_buffer_gauges()
            now = self.now()
            for port in self._scheduler.ports_view():
                self._enqueue_notification(Message.with_fields(
                    MsgType.UP_THROUGHPUT, self._node_id, CONTROL_APP,
                    peer=port.label, rate=port.stats.throughput.rate(now),
                ))
            for link in self._out.values():
                self._enqueue_notification(Message.with_fields(
                    MsgType.DOWN_THROUGHPUT, self._node_id, CONTROL_APP,
                    peer=link.label, rate=link.stats.throughput.rate(now),
                ))

    def _boot_message(self) -> Message:
        return Message.with_fields(
            MsgType.BOOT, self._node_id, CONTROL_APP, node=str(self._node_id)
        )

    def _send_boot(self) -> None:
        self.send_to_observer(self._boot_message())

    # --------------------------------------------------------------------- helpers

    def _enqueue_notification(self, msg: Message) -> None:
        if not self._running:
            return
        self._control.put_force(msg)
        self._wake.set()

    def _notify_broken_link(self, peer: NodeId, direction: str) -> None:
        if self._ins is not None:
            self._ins.on_broken_link(direction)
        self._enqueue_notification(Message.with_fields(
            MsgType.BROKEN_LINK, self._node_id, CONTROL_APP,
            peer=str(peer), direction=direction,
        ))

    def _record_loss(self, msg: Message, stats: LinkStats) -> None:
        """Count ``msg`` lost on its link and on the node (survives teardown)."""
        stats.loss.record(msg.size)
        self._lost_messages += 1
        self._lost_bytes += msg.size
        if self._ins is not None:
            self._ins.n_drops += 1
            self._ins.n_dropped_bytes += msg.size
            if self._ins.tracer.enabled:
                self._ins.trace_msg(self.now(), EventType.DROP, msg)

    def _track_downstream(self, app: AppId, dest: NodeId) -> None:
        # get-then-add: setdefault would allocate a throwaway set per call
        peers = self._app_downstreams.get(app)
        if peers is None:
            peers = self._app_downstreams[app] = set()
        peers.add(dest)

    def _track_upstream(self, app: AppId, peer: NodeId) -> None:
        peers = self._app_upstreams.get(app)
        if peers is None:
            peers = self._app_upstreams[app] = set()
        peers.add(peer)
