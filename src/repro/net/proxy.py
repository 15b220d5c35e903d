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
funnel of the original paper: every upward frame is forwarded unchanged,
the very bytes the node wrote, whose header ``sender`` names the origin
to every hub above; downstream ``PROXY`` envelopes carry a destination
and are unwrapped here.  Funnels compose: a nested proxy's frames pass
on the same way.

**Aggregation mode** (``flush_interval`` set) turns the proxy into a
*reducing* node of an observer tree.  Instead of relaying every child
frame it:

- absorbs ``STATUS`` frames, keeping only each member's latest report;
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
from repro.net.framing import unwrap_proxy
from repro.net.observer_link import ObserverHub, ObserverUplink
from repro.net.resilience import BackoffPolicy
from repro.observer.observer import decode_rollup
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
        #: direct children that sent a roll-up: aggregators, even ones
        #: with no member yet (relays show up as route owners)
        self._child_aggregators: set[NodeId] = set()
        self.relayed_down = 0
        #: member str -> its BOOT frame, replayed as it is after a redial
        #: (hex-encoded only when riding inside a W_AGG JSON ``boots`` map)
        self._boot_frames: dict[str, Message] = {}
        self.boots_replayed = 0

        # ---- aggregation state (flush_interval set) -----------------------
        #: member str -> latest status fields (metrics stripped)
        self._child_status: dict[str, dict] = {}
        self._status_dirty: set[str] = set()
        #: metrics key (member str, or "subtree:<child>") -> cumulative snapshot
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
        # roll-up's sender must carry the *final* address, which with
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

    def _dispatch(self, child: NodeId, msg: Message) -> None:
        """Fold one upward frame into the roll-up, or forward it unchanged.

        Aggregation mode absorbs STATUS and W_AGG frames; everything else
        goes up as the bytes that came in.  BOOTs passing through are
        remembered in both modes, for the replay after a redial.
        """
        if self.aggregating and msg.type == MsgType.STATUS:
            self._absorb_status(msg)
        elif self.aggregating and msg.type == MsgType.W_AGG:
            self._absorb_child_agg(child, msg)
        else:
            if msg.type == MsgType.BOOT:
                self._boot_frames[str(msg.sender)] = msg
            self._uplink.push(msg)

    def _child_gone(self, child: NodeId, gone: list[NodeId]) -> None:
        """A direct child dropped: purge it and its whole subtree.

        Nothing of the child (or, for a child proxy, of its whole
        subtree) may linger in the status or metrics caches — a stale
        series would otherwise keep merging into every future flush and
        a restarted child would double-count against its own ghost.
        """
        self._child_aggregators.discard(child)
        self._child_metrics.pop(f"subtree:{child}", None)
        for member in map(str, gone):
            if self._forget(member) and self.aggregating:
                self._departed.add(member)

    def _forget(self, member: str) -> bool:
        """Drop what is held about one member; True if anything was."""
        self._status_dirty.discard(member)
        return (
            (self._child_status.pop(member, None) is not None)
            | (self._child_metrics.pop(member, None) is not None)
            | (self._boot_frames.pop(member, None) is not None)
        )

    def _node_children(self) -> list[NodeId]:
        """Direct children that are nodes: no member is routed through
        them and no roll-up came from them."""
        proxies = self._child_aggregators.union(self._routes.values())
        return [node for node in self._writers if node not in proxies]

    def _absorb_status(self, msg: Message) -> None:
        """Keep only the member's latest report; metrics ride the delta path."""
        fields = msg.fields()
        metrics = fields.pop("metrics", None)
        key = str(msg.sender)
        if metrics:
            self._child_metrics[key] = fold_snapshot(None, metrics, full=True)
        self._child_status[key] = fields
        self._status_dirty.add(key)
        self.agg_absorbed += 1

    def _absorb_child_agg(self, child: NodeId, msg: Message) -> None:
        """Fold a child aggregator's flush into this proxy's own state.

        :func:`~repro.observer.observer.decode_rollup` decodes it whole
        first — the root's verdict on the same frame — so a malformed
        flush is refused here, with nothing applied, rather than
        forwarded to fail above.
        """
        rollup = decode_rollup(msg)
        key = f"subtree:{child}"
        metrics = self._child_metrics.get(key)
        if rollup.metrics:
            metrics = fold_snapshot(metrics, rollup.metrics, rollup.full)
        self._child_aggregators.add(child)
        for member in map(str, rollup.departed):
            self._forget(member)
            self._departed.add(member)
        self._boot_frames.update((str(node), boot) for node, boot in rollup.boots.items())
        statuses = {str(node): status for node, status in rollup.statuses.items()}
        self._child_status.update(statuses)
        self._status_dirty.update(statuses)
        if metrics is not None:
            self._child_metrics[key] = metrics
        self._pending_traces.extend(rollup.traces)
        self.trace_dropped += rollup.trace_dropped
        self.agg_absorbed += 1

    # --------------------------------------------------------------- upstream side

    def _from_upstream(self, envelope: Message) -> None:
        """Route one downward envelope to its destination."""
        if envelope.type != MsgType.PROXY:
            return
        if self._route_down(*unwrap_proxy(envelope)):
            self.relayed_down += 1

    def _new_epoch(self) -> list[Message]:
        """The greeting of a fresh upstream connection.

        Every (re)connect starts a new epoch: the delta baseline resets
        (the next flush carries the full accumulated snapshot with
        ``full=True``), all cached statuses are re-marked dirty, and
        every remembered BOOT frame is replayed as it is, ahead of
        anything queued, so the upstream's bootstrap/routing view is
        rebuilt.
        """
        self._resync = True
        self._acked_merged = {}
        self._status_dirty.update(self._child_status)
        self.boots_replayed += len(self._boot_frames)
        return list(self._boot_frames.values())

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
        request = Message.with_fields(MsgType.REQUEST, self.addr, CONTROL_APP)
        for node in self._node_children():
            self._route_down(node, request.clone())

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
            member: self._child_status[member]
            for member in self._status_dirty if member in self._child_status
        }
        members = sorted(set(self._child_status).union(
            map(str, [*self._routes, *self._node_children()])))
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
            boots={member: boot.pack().hex() for member, boot in self._boot_frames.items()},
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
