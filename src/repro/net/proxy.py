"""The observer proxy: fan many node connections into one observer link.

The paper adds a proxy because Windows limits backlogged connections and
desktop observers sit behind firewalls: "the status updates from overlay
nodes are submitted to the proxy, who relays them with a single
connection to the observer" (Section 2.2), letting the observer handle
thousands of virtualized nodes.

The proxy is an :class:`~repro.net.observer_link.ObserverHub` towards
its children and owns one :class:`~repro.net.observer_link.ObserverUplink`
towards its parent, so both ends of its links behave exactly like the
root's and a node's.  What it adds is the frame dispatch, in one of two
modes:

**Relay mode** (``flush_interval=None``, the default) is the byte
funnel of the original paper: every upward frame is wrapped in a
``PROXY`` envelope tagged with the originating node; downstream
envelopes carry a destination and are unwrapped here.  Envelopes from a
nested proxy are forwarded unchanged (only their member routes are
learned), so funnels compose.

**Aggregation mode** (``flush_interval`` set) turns the proxy into a
*reducing* node of an observer tree.  Instead of relaying every child
frame it:

- absorbs ``STATUS`` frames, keeping only each child's latest report;
- polls its direct node children itself (the upstream observer skips
  aggregated members entirely);
- merges the children's metric snapshots locally — counters summed,
  gauges last-write, histogram buckets bucket-wise — and forwards only
  the **delta since the last successful flush** upward;
- forwards head-sampled lifecycle trace events from the co-located
  worker telemetry (and from child aggregators) under a per-flush
  budget;
- rolls the subtree's membership and departures into the same ``W_AGG``
  frame, which doubles as the subtree's lease-renewal heartbeat.

Aggregating proxies compose into multi-level trees: a ``W_AGG`` frame
arriving from a child aggregator is folded into this proxy's own state
rather than forwarded, so the root observer reconstructs the fleet view
from O(tree-depth) hops instead of O(nodes) connections.

In both modes the upstream link is supervised: frames queue in a
bounded outbox while it is down, it is redialed under bounded
exponential backoff, and every reconnect first replays the remembered
``BOOT`` frames of every member.  Aggregation mode also resynchronizes
its delta stream then, flushing the *full* accumulated snapshot
(``full=True``), so whatever state the upstream lost — or
double-counts it would otherwise apply — is reconciled.
"""

from __future__ import annotations

import asyncio
import time
from typing import TYPE_CHECKING, Any

from repro.core.ids import CONTROL_APP, NodeId
from repro.core.message import Message
from repro.core.msgtypes import MsgType
from repro.net.framing import (
    peek_frame_type,
    proxy_frame_bytes,
    proxy_meta,
    unwrap_proxy,
    wrap_proxy_up,
    wrap_proxy_up_bytes,
    write_message,
)
from repro.net.observer_link import ObserverHub, ObserverUplink
from repro.net.resilience import BackoffPolicy
from repro.telemetry.metrics import (
    fold_snapshot,
    merge_snapshots,
    snapshot_delta,
    snapshot_regressed,
)
from repro.telemetry.tracing import EventType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.telemetry import Telemetry


class ObserverProxy(ObserverHub):
    """Relays or pre-reduces node <-> observer traffic over one upstream link."""

    def __init__(
        self,
        addr: NodeId,
        observer_addr: NodeId,
        *,
        flush_interval: float | None = None,
        telemetry: "Telemetry | None" = None,
        trace_budget: int = 256,
        outbox_capacity: int = 1024,
        backoff: BackoffPolicy | None = None,
    ) -> None:
        super().__init__(addr)
        self.observer_addr = observer_addr
        #: seconds between roll-up flushes; ``None`` = pure relay mode
        self.flush_interval = flush_interval
        #: co-located worker telemetry whose tracer feeds forwarded events
        self.telemetry = telemetry
        #: max local trace events forwarded per flush (head-sampled already)
        self.trace_budget = trace_budget
        self._uplink = ObserverUplink(
            observer_addr,
            launch=self._tasks.launch,
            on_frame=self._from_upstream,
            on_connected=self._new_epoch,
            backoff=backoff or BackoffPolicy(base=0.05, maximum=2.0),
            capacity=outbox_capacity,
            on_fault=self.trace_fault,
        )
        #: downstream connections known to be proxies (they sent PROXY/W_AGG)
        self._child_proxies: set[NodeId] = set()
        self.relayed_down = 0
        #: origin str -> packed BOOT frame bytes, replayed after a redial
        #: (hex-encoded only when riding inside a W_AGG JSON ``boots`` map)
        self._boot_frames: dict[str, bytes] = {}
        self.boots_replayed = 0

        # ---- aggregation state (flush_interval set) -----------------------
        #: origin str -> latest status fields (metrics stripped)
        self._child_status: dict[str, dict] = {}
        self._status_dirty: set[str] = set()
        #: metrics key (origin str, or "subtree:<child>") -> cumulative snapshot
        self._child_metrics: dict[str, dict] = {}
        #: merged snapshot as of the last *successful* flush (delta baseline)
        self._acked_merged: dict = {}
        #: full-resync pending: first flush after (re)connect replaces, not merges
        self._resync = True
        #: members that left since the last flush (reported once)
        self._departed: set[str] = set()
        self._pending_traces: list[dict] = []
        self._trace_cursor = 0
        self.trace_dropped = 0
        self.agg_flushes = 0
        self.agg_absorbed = 0  # STATUS/W_AGG frames folded instead of relayed

    @property
    def aggregating(self) -> bool:
        return self.flush_interval is not None

    @property
    def relayed_up(self) -> int:
        return self._uplink.sent

    @property
    def outbox_drops(self) -> int:
        return self._uplink.drops

    @property
    def upstream_reconnects(self) -> int:
        return self._uplink.reconnects

    # ------------------------------------------------------------------ lifecycle

    async def start(self) -> None:
        # Bind before dialing upstream: the HELLO identity and every
        # envelope origin must carry the *final* address, which with
        # port 0 is only known once the server socket exists.
        await self._bind()
        try:
            await self._uplink.start(self.addr)
        except BaseException:
            await self.stop()
            raise
        if self.aggregating:
            self._tasks.launch(self._flush_loop(), "flush")

    async def stop(self) -> None:
        self._uplink.close()
        await super().stop()

    def trace_fault(self, node: NodeId, **detail: Any) -> None:
        if self.telemetry is not None:
            self.telemetry.tracer.record(
                time.monotonic(), str(node), EventType.CONTROL_FAULT, **detail
            )

    # ------------------------------------------------------------- downstream side

    def _dispatch(self, origin: NodeId, msg: Message) -> None:
        """Fold one upward frame into the roll-up, or relay it.

        Aggregation mode absorbs STATUS and W_AGG frames; everything else
        goes up — a nested proxy's frames unchanged, a node's wrapped in
        a ``PROXY`` envelope.  BOOTs passing through are remembered in
        both modes, for the replay after a redial.
        """
        kind = msg.type
        if kind in (MsgType.PROXY, MsgType.W_AGG):
            self._child_proxies.add(origin)
        if self.aggregating and kind == MsgType.STATUS:
            self._absorb_status(origin, msg)
        elif self.aggregating and kind == MsgType.W_AGG:
            self._absorb_child_agg(origin, msg)
        elif kind in (MsgType.PROXY, MsgType.W_AGG):
            if kind == MsgType.PROXY and peek_frame_type(msg) == MsgType.BOOT:
                member = str(NodeId.parse(proxy_meta(msg)["origin"]))
                self._boot_frames[member] = proxy_frame_bytes(msg)
            self._uplink.push(msg)
        else:
            if kind == MsgType.BOOT:
                self._boot_frames[str(origin)] = msg.pack()
            self._uplink.push(wrap_proxy_up(self.addr, origin, msg))

    def _child_gone(self, child: NodeId, gone: list[NodeId]) -> None:
        """A direct child dropped: purge it and its whole subtree.

        Nothing of the child (or, for a child aggregator, of its whole
        subtree) may linger in the status or metrics caches — a stale
        series would otherwise keep merging into every future flush and
        a restarted child would double-count against its own ghost.
        """
        self._child_proxies.discard(child)
        self._child_metrics.pop(f"subtree:{child}", None)
        for origin in map(str, gone):
            if self._forget(origin) and self.aggregating:
                self._departed.add(origin)

    def _forget(self, origin: str) -> bool:
        """Drop what is held about one member; True if anything was."""
        self._status_dirty.discard(origin)
        return (
            (self._child_status.pop(origin, None) is not None)
            | (self._child_metrics.pop(origin, None) is not None)
            | (self._boot_frames.pop(origin, None) is not None)
        )

    def _absorb_status(self, origin: NodeId, msg: Message) -> None:
        """Keep only the child's latest report; metrics ride the delta path."""
        fields = msg.fields()
        metrics = fields.pop("metrics", None)
        key = str(origin)
        if metrics:
            self._child_metrics[key] = fold_snapshot(None, metrics, full=True)
        self._child_status[key] = fields
        self._status_dirty.add(key)
        self.agg_absorbed += 1

    def _absorb_child_agg(self, child: NodeId, msg: Message) -> None:
        """Fold a child aggregator's flush into this proxy's own state.

        The frame is decoded whole before anything is applied, and every
        member it names must parse as a node id: a malformed flush is
        refused here rather than forwarded to fail at every level above.
        """
        fields = msg.fields()
        departed = [str(NodeId.parse(text)) for text in fields.get("departed", [])]
        boots = {
            str(NodeId.parse(origin)): bytes.fromhex(frame_hex)
            for origin, frame_hex in fields.get("boots", {}).items()
        }
        statuses = {
            str(NodeId.parse(origin)): dict(status_fields)
            for origin, status_fields in fields.get("statuses", {}).items()
        }
        key = f"subtree:{child}"
        metrics = self._child_metrics.get(key)
        if fields.get("metrics"):
            metrics = fold_snapshot(metrics, fields["metrics"], bool(fields.get("full")))
        traces = [event for event in fields.get("traces", []) if isinstance(event, dict)]
        trace_dropped = int(fields.get("trace_dropped", 0))
        for origin in departed:
            self._forget(origin)
            self._departed.add(origin)
        self._boot_frames.update(boots)
        self._child_status.update(statuses)
        self._status_dirty.update(statuses)
        if metrics is not None:
            self._child_metrics[key] = metrics
        self._pending_traces.extend(traces)
        self.trace_dropped += trace_dropped
        self.agg_absorbed += 1

    # --------------------------------------------------------------- upstream side

    def _from_upstream(self, envelope: Message) -> None:
        """Route one downward envelope to its destination."""
        if envelope.type != MsgType.PROXY:
            return
        dest = NodeId.parse(proxy_meta(envelope)["dest"])
        if self._route_down(dest, unwrap_proxy(envelope)):
            self.relayed_down += 1

    def _new_epoch(self) -> list[Message]:
        """The greeting of a fresh upstream connection.

        Every (re)connect starts a new epoch: the delta baseline resets
        (the next flush carries the full accumulated snapshot with
        ``full=True``), all cached statuses are re-marked dirty, and
        every remembered BOOT frame is replayed ahead of anything queued
        so the upstream's bootstrap/routing view is rebuilt.
        """
        self._resync = True
        self._acked_merged = {}
        self._status_dirty.update(self._child_status)
        self.boots_replayed += len(self._boot_frames)
        return [
            wrap_proxy_up_bytes(self.addr, origin, frame_bytes)
            for origin, frame_bytes in self._boot_frames.items()
        ]

    # ------------------------------------------------------------------- flushing

    async def _flush_loop(self) -> None:
        assert self.flush_interval is not None
        while self._running:
            await asyncio.sleep(self.flush_interval)
            if not self._running:
                return
            await self.flush()
            self._poll_children()

    def _poll_children(self) -> None:
        """Request fresh statuses from direct *node* children.

        Child proxies are never polled — they run their own flush loops.
        Replies arrive before the next tick and are absorbed into the
        roll-up, so the upstream observer needs no per-node fan-out.
        """
        request = Message.with_fields(
            MsgType.REQUEST, self.addr, CONTROL_APP
        )
        for node, writer in list(self._writers.items()):
            if node in self._child_proxies or writer.is_closing():
                continue
            write_message(writer, request.clone())

    def _collect_local_traces(self) -> None:
        """Pull fresh head-sampled events from the co-located tracer."""
        if self.telemetry is None:
            return
        events, self._trace_cursor = self.telemetry.tracer.events_since(
            self._trace_cursor
        )
        self._pending_traces.extend(event.to_dict() for event in events)

    async def flush(self) -> bool:
        """Send one roll-up frame upstream; returns True when it left.

        The delta baseline advances only after the frame is written *and
        drained*: a flush lost to a dying connection keeps its changes
        in the baseline difference, so the stream resynchronizes on the
        next successful flush instead of silently losing a delta.
        """
        merged = merge_snapshots(
            [snap for snap in self._child_metrics.values() if snap]
        ) if self._child_metrics else {}
        if not self._resync and snapshot_regressed(self._acked_merged, merged):
            # A child died or restarted: series vanished or counters went
            # backwards.  A delta can't express that — switch this flush
            # to a full replacement so no stale series survives upstream
            # and a restarted child is never double-counted.
            self._resync = True
            self._acked_merged = {}
        delta = snapshot_delta(self._acked_merged, merged)
        self._collect_local_traces()
        if len(self._pending_traces) > self.trace_budget:
            self.trace_dropped += len(self._pending_traces) - self.trace_budget
            del self._pending_traces[self.trace_budget:]
        statuses = {
            origin: self._child_status[origin]
            for origin in self._status_dirty if origin in self._child_status
        }
        members = sorted(set(self._child_status) | {str(o) for o in self._routes}
                         | {str(n) for n in self._writers
                            if n not in self._child_proxies})
        frame = Message.with_fields(
            MsgType.W_AGG, self.addr, 0,
            members=members,
            departed=sorted(self._departed),
            statuses=statuses,
            metrics=delta,
            traces=self._pending_traces,
            trace_dropped=self.trace_dropped,
            # JSON payload: raw frame bytes must be hex-armoured here (and
            # only here — the relay path ships them raw).
            boots={origin: frame.hex() for origin, frame in self._boot_frames.items()},
            full=self._resync,
        )
        if not await self._uplink.send_now(frame):
            return False
        self._acked_merged = merged
        self._resync = False
        self._status_dirty.clear()
        self._departed.clear()
        self._pending_traces = []
        self.trace_dropped = 0
        self.agg_flushes += 1
        return True
