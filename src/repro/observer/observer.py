"""The observer: centralized bootstrap, monitoring and control.

The observer (Section 2.2) is the single non-distributed component of
iOverlay.  It:

- answers ``boot`` requests with a random subset of alive nodes,
- periodically requests status updates from every bootstrapped node,
- records ``trace`` messages centrally,
- acts as a control panel: deploy applications, join/leave, terminate
  nodes and sources, and change emulated bandwidth at runtime,
- can send algorithm-specific control messages with two optional
  integer parameters.

The class is transport-agnostic: it talks to nodes through an
:class:`ObserverTransport`, implemented by the simulator (direct
delivery with latency) and by the asyncio stack (real TCP, optionally
via the firewall proxy).
"""

from __future__ import annotations

import random
from typing import Any, NamedTuple, Protocol

from repro.core.ids import CONTROL_APP, AppId, NodeId
from repro.core.message import Message
from repro.core.msgtypes import MsgType
from repro.errors import CodecError
from repro.observer.status import NodeStatus
from repro.observer.topology import TopologySnapshot
from repro.observer.trace import TraceLog
from repro.telemetry.metrics import fold_snapshot, merge_snapshots
from repro.telemetry.tracing import EventType, Tracer


class ObserverTransport(Protocol):
    """How the observer reaches nodes and tells the time."""

    def observer_send(self, node: NodeId, msg: Message) -> None:
        """Deliver a control message to ``node``'s publicized port."""

    def observer_now(self) -> float:
        """Current time (virtual in the simulator, wall-clock live)."""


class Rollup(NamedTuple):
    """One aggregation-tree flush (``W_AGG``), decoded and validated."""

    members: list[NodeId]
    departed: list[NodeId]
    statuses: dict[NodeId, dict]
    #: member -> its remembered BOOT frame, replayed upward as it is
    boots: dict[NodeId, Message]
    metrics: dict
    full: bool
    traces: list[dict]
    trace_dropped: int


def decode_rollup(msg: Message) -> Rollup:
    """Decode a ``W_AGG`` frame whole, or raise.

    The root observer and every proxy judge a roll-up only through this
    one decoder — a relay before it forwards the frame, an aggregator
    before it folds it — so a malformed flush gets the same verdict at
    every level: refused whole, before any of it is applied.
    """
    fields = msg.fields()

    def typed(key: str, kind: type, default: Any) -> Any:
        value = fields.get(key, default)
        if not isinstance(value, kind):
            raise CodecError(f"W_AGG {key!r} is not a {kind.__name__}")
        return value

    def frame(text: str) -> Message:
        boot = Message.unpack(bytes.fromhex(text))
        if boot.type != MsgType.BOOT:
            raise CodecError(f"W_AGG boot frame has type {boot.type}")
        return boot

    statuses = typed("statuses", dict, {})
    traces = typed("traces", list, [])
    if not all(isinstance(entry, dict) for entry in [*statuses.values(), *traces]):
        raise CodecError("W_AGG status or trace entry is not an object")
    return Rollup(
        members=[NodeId.parse(text) for text in typed("members", list, [])],
        departed=[NodeId.parse(text) for text in typed("departed", list, [])],
        statuses={NodeId.parse(node): status for node, status in statuses.items()},
        boots={NodeId.parse(node): frame(text)
               for node, text in typed("boots", dict, {}).items()},
        # Rebuilt through the merge: a snapshot of the wrong shape raises
        # here, at a relay as at the levels that fold it.
        metrics=merge_snapshots([typed("metrics", dict, {})]),
        full=typed("full", bool, False),
        traces=traces,
        trace_dropped=typed("trace_dropped", int, 0),
    )


class Observer:
    """Centralized monitoring facility and control panel."""

    #: identity stamped on messages originating at the observer
    OBSERVER_ID = NodeId("0.0.0.0", 1)

    def __init__(
        self,
        transport: ObserverTransport,
        bootstrap_fanout: int = 8,
        seed: int = 0,
        lease_timeout: float | None = None,
    ) -> None:
        self._transport = transport
        self.bootstrap_fanout = bootstrap_fanout
        self.rng = random.Random(seed)
        self.alive: dict[NodeId, None] = {}  # insertion-ordered set
        self.statuses: dict[NodeId, NodeStatus] = {}
        self.traces = TraceLog()
        self.boot_count = 0
        #: seconds of observer-side silence before a node's lease expires
        #: (``None`` disables lease tracking entirely)
        self.lease_timeout = lease_timeout
        #: when each alive node was last heard from (any message type)
        self.last_seen: dict[NodeId, float] = {}
        #: total leases ever expired by :meth:`expire_leases`
        self.lease_expiries = 0
        #: nodes whose state arrives pre-reduced inside ``W_AGG`` frames
        #: from an aggregating proxy subtree: the poll loop skips them
        #: (their aggregator polls locally), which is what turns the
        #: observer's fan-out from O(nodes) into O(direct children).
        self.aggregated: set[NodeId] = set()
        #: per-aggregator accumulated metric snapshots (deltas applied)
        self._agg_metrics: dict[NodeId, dict] = {}
        #: fleet-wide lifecycle tracer rebuilt from forwarded trace events
        self.flow_tracer = Tracer(capacity=65536, enabled=True)
        self.agg_frames = 0
        self.agg_bytes = 0

    # ------------------------------------------------------------- incoming path

    def on_message(self, msg: Message) -> None:
        """Entry point for every message a node sends to the observer."""
        if self.lease_timeout is not None:
            self.last_seen[msg.sender] = self._transport.observer_now()
        if msg.type == MsgType.BOOT:
            self._handle_boot(msg)
        elif msg.type == MsgType.STATUS:
            self.statuses[msg.sender] = NodeStatus.from_message(
                msg, received_at=self._transport.observer_now()
            )
        elif msg.type == MsgType.TRACE:
            self._handle_trace(msg)
        elif msg.type == MsgType.W_AGG:
            self._handle_agg(msg)
        # Unknown types are ignored: the observer is never a single point
        # of failure for the data plane.

    def _handle_trace(self, msg: Message) -> None:
        """Record a TRACE frame; structured payloads carry a trace id."""
        now = self._transport.observer_now()
        text = msg.payload.decode()
        tid = ""
        if text.startswith("{"):
            try:
                fields = msg.fields()
            except Exception:
                fields = None
            if fields is not None and "text" in fields:
                text = str(fields["text"])
                tid = str(fields.get("trace_id", ""))
        self.traces.record(now, msg.sender, msg.app, text, trace_id=tid)

    def _handle_agg(self, msg: Message) -> None:
        """Fold one aggregation-tree flush into the fleet view.

        The frame carries the subtree's membership, status roll-ups
        (statuses were absorbed by the aggregator instead of being
        relayed one by one), metric *deltas* since the aggregator's last
        successful flush, and head-sampled lifecycle trace events.  Its
        arrival renews the lease of every member — the subtree's
        liveness signal is the flush itself.  The frame is decoded and
        folded before anything is applied: a malformed frame raises with
        the view untouched.
        """
        now = self._transport.observer_now()
        rollup = decode_rollup(msg)
        statuses = []
        for status_fields in rollup.statuses.values():
            try:
                statuses.append(NodeStatus.from_fields(status_fields, received_at=now))
            except Exception:
                continue  # a malformed roll-up entry never kills the view
        metrics = self._agg_metrics.get(msg.sender)
        if rollup.metrics:
            metrics = fold_snapshot(metrics, rollup.metrics, rollup.full)
        self.agg_frames += 1
        self.agg_bytes += msg.size
        for node in rollup.members:
            self.alive.setdefault(node, None)
            self.aggregated.add(node)
            if self.lease_timeout is not None:
                self.last_seen[node] = now
        for node in rollup.departed:
            self.mark_down(node)
        for status in statuses:
            self.statuses[status.node] = status
        if metrics is not None:
            self._agg_metrics[msg.sender] = metrics
        self.flow_tracer.ingest(rollup.traces)

    def _handle_boot(self, msg: Message) -> None:
        """First level of bootstrap support: reply with random alive nodes."""
        newcomer = msg.sender
        peers = [node for node in self.alive if node != newcomer]
        subset = peers if len(peers) <= self.bootstrap_fanout else self.rng.sample(
            peers, self.bootstrap_fanout
        )
        self.alive.setdefault(newcomer, None)
        self.boot_count += 1
        reply = Message.with_fields(
            MsgType.BOOT_REPLY,
            self.OBSERVER_ID,
            CONTROL_APP,
            hosts=[str(node) for node in subset],
        )
        self._transport.observer_send(newcomer, reply)

    def mark_down(self, node: NodeId) -> None:
        """Forget a node that terminated (fabric notification)."""
        self.alive.pop(node, None)
        self.statuses.pop(node, None)
        self.last_seen.pop(node, None)
        self.aggregated.discard(node)

    # -------------------------------------------------------------------- leases

    def expire_leases(self, now: float | None = None) -> list[NodeId]:
        """Tear down nodes whose heartbeat lease has lapsed.

        A node's lease is renewed by *any* message it sends (status
        reply, trace, boot); a node silent for longer than
        ``lease_timeout`` is presumed dead or partitioned, trace-logged
        and marked down so the bootstrap view stops handing it out.
        Returns the nodes expired on this sweep.  No-op when lease
        tracking is disabled.
        """
        if self.lease_timeout is None:
            return []
        if now is None:
            now = self._transport.observer_now()
        expired = [
            node
            for node, seen in self.last_seen.items()
            if now - seen > self.lease_timeout
        ]
        for node in expired:
            self.lease_expiries += 1
            silent = now - self.last_seen[node]
            self.traces.record(
                now, node, CONTROL_APP,
                f"lease-expired silent={silent:.3f}s timeout={self.lease_timeout}s",
            )
            self.mark_down(node)
        return expired

    # --------------------------------------------------------------- status polls

    def poll_all(self) -> int:
        """Send a status ``request`` to every *directly-attached* alive node.

        Members of an aggregating subtree are skipped: their aggregator
        polls them locally and flushes the roll-up upward, so the root's
        request fan-out scales with its direct children (O(tree depth)
        hops to any status), not with the fleet.  Returns the number of
        requests sent.
        """
        request = Message.with_fields(MsgType.REQUEST, self.OBSERVER_ID, CONTROL_APP)
        polled = 0
        for node in list(self.alive):
            if node in self.aggregated:
                continue
            self._transport.observer_send(node, request.clone())
            polled += 1
        return polled

    def topology(self) -> TopologySnapshot:
        """The overlay graph per the most recent status reports."""
        return TopologySnapshot(dict(self.statuses))

    # ------------------------------------------------------------ cluster metrics

    def cluster_metrics(self) -> dict:
        """Merge the per-node telemetry snapshots into one aggregate.

        Each status report carries the reporting node's registry snapshot
        (when telemetry is enabled); counters and histograms sum across
        nodes while gauges keep the freshest sample.  Returns ``{}`` when
        no node has reported metrics.
        """
        snapshots = [
            status.metrics for status in self.statuses.values() if status.metrics
        ]
        snapshots.extend(self._agg_metrics.values())
        return merge_snapshots(snapshots) if snapshots else {}

    def prometheus(self) -> str:
        """The cluster-wide aggregate in Prometheus text exposition format."""
        from repro.telemetry.exporters import to_prometheus

        return to_prometheus(self.cluster_metrics())

    # ---------------------------------------------------------------- flow queries

    def flow_events(self, trace_id: str) -> list:
        """Forwarded lifecycle events of one message, time-ordered."""
        return self.flow_tracer.events_for(trace_id)

    def flow_path(self, trace_id: str) -> list[str]:
        """The stitched node path one message took across the fleet."""
        return self.flow_tracer.path(trace_id)

    def flow_report(self, trace_id: str) -> dict:
        """The stitched causal view of one message: path + per-hop dwell.

        Works across worker boundaries because the trace id is a pure
        function of the immutable wire header — every worker's tracer
        assigns the identical id, and the aggregation tree forwards the
        (head-sampled) events to this root.  Each hop reports when the
        message was first and last seen on that node; the dwell is the
        node's contribution to end-to-end latency.
        """
        events = self.flow_events(trace_id)
        hops = []
        for node in self.flow_path(trace_id):
            times = [e.time for e in events if e.node == node]
            hops.append({
                "node": node,
                "first_seen": min(times),
                "last_seen": max(times),
                "dwell": max(times) - min(times),
                "events": [e.event for e in events if e.node == node],
            })
        forwards = [e for e in events if e.event == EventType.FORWARD]
        return {
            "trace_id": trace_id,
            "path": [h["node"] for h in hops],
            "hops": hops,
            "events": [e.to_dict() for e in events],
            "forwards": len(forwards),
            "end_to_end": (max(e.time for e in events) - min(e.time for e in events))
            if events else 0.0,
        }

    # -------------------------------------------------------------- control panel

    def deploy_source(self, node: NodeId, app: AppId, payload_size: int = 5120) -> None:
        """Deploy an application data source on ``node`` (``sDeploy``)."""
        self._control(node, Message.with_fields(
            MsgType.S_DEPLOY, self.OBSERVER_ID, app, app=app, payload_size=payload_size,
        ))

    def terminate_source(self, node: NodeId, app: AppId) -> None:
        """Terminate an application data source (``sTerminate``)."""
        self._control(node, Message.with_fields(
            MsgType.S_TERMINATE, self.OBSERVER_ID, app, app=app,
        ))

    def terminate_node(self, node: NodeId) -> None:
        """Terminate a node at will; its engine cleans up gracefully."""
        self._control(node, Message.with_fields(MsgType.TERMINATE, self.OBSERVER_ID, CONTROL_APP))

    def connect(self, src: NodeId, dest: NodeId) -> None:
        """Ask ``src`` to open a persistent connection to ``dest``."""
        self._control(src, Message.with_fields(
            MsgType.CONNECT, self.OBSERVER_ID, CONTROL_APP, dest=str(dest),
        ))

    def disconnect(self, src: NodeId, dest: NodeId) -> None:
        self._control(src, Message.with_fields(
            MsgType.DISCONNECT, self.OBSERVER_ID, CONTROL_APP, dest=str(dest),
        ))

    def set_node_bandwidth(
        self, node: NodeId, category: str, rate: float | None
    ) -> None:
        """Emulate per-node bandwidth: category is total, up or down."""
        if category not in ("total", "up", "down"):
            raise ValueError(f"category must be total/up/down, got {category!r}")
        self._control(node, Message.with_fields(
            MsgType.SET_BANDWIDTH, self.OBSERVER_ID, CONTROL_APP,
            category=category, rate=rate,
        ))

    def set_link_bandwidth(self, node: NodeId, peer: NodeId, rate: float | None) -> None:
        """Emulate per-link bandwidth on ``node``'s outgoing link to ``peer``."""
        self._control(node, Message.with_fields(
            MsgType.SET_BANDWIDTH, self.OBSERVER_ID, CONTROL_APP,
            category="link", peer=str(peer), rate=rate,
        ))

    def send_control(
        self, node: NodeId, type_: int, param1: int = 0, param2: int = 0, app: AppId = CONTROL_APP
    ) -> None:
        """Send an algorithm-specific control message with two int params."""
        self._control(node, Message.with_fields(
            MsgType.CONTROL, self.OBSERVER_ID, app,
            type=type_, param1=param1, param2=param2,
        ))

    def send_message(self, node: NodeId, msg: Message) -> None:
        """Deliver an arbitrary pre-built message to a node's port.

        Experiments use this to inject algorithm-specific messages (e.g.
        ``sAssign`` and ``sFederate`` in the service-federation study).
        """
        self._control(node, msg)

    def _control(self, node: NodeId, msg: Message) -> None:
        self._transport.observer_send(node, msg)
