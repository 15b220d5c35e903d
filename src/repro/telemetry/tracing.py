"""Structured message-lifecycle tracing.

Every data message gets a deterministic **trace id** derived from its
immutable header (original sender, application, sequence number), so the
id survives forwarding by reference in the simulator *and* re-decoding
from wire bytes in the asyncio engine — the same message carries the
same id on every node it visits.

Engines record typed :class:`TraceEvent` s at each lifecycle step
(:class:`EventType`): emitted at the source, enqueued into a receiver
buffer, picked by a switch round, deferred on back pressure, retried,
forwarded onto a link, dropped on failure, delivered to the local
algorithm.  The events of one id, ordered by time, reconstruct the
message's full path source → sink; :mod:`repro.telemetry.exporters`
renders them as Chrome trace-event JSON loadable in ``chrome://tracing``
or Perfetto.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator

from repro.core.message import Message

__all__ = ["EventType", "TraceEvent", "Tracer", "trace_id"]


class EventType:
    """The typed lifecycle steps of a data message (string constants)."""

    SOURCE_EMIT = "source-emit"          # produced by a local source task
    ENQUEUE = "enqueue"                  # entered a receiver buffer
    SWITCH_PICK = "switch-pick"          # taken off a port by a switch round
    CREDIT_EXHAUSTED = "credit-exhausted"  # port skipped: WRR credit spent
    DEFER = "defer"                      # send hit a full sender buffer
    RETRY = "retry"                      # a deferred forward was retried
    FORWARD = "forward"                  # left this node on a link
    DROP = "drop"                        # lost to a failure or teardown
    DELIVER = "deliver"                  # consumed by the local algorithm

    # Port-level link-health events (not tied to one message): the
    # LIVE -> SUSPECT -> PROBING -> DEAD detection ladder of the
    # resilience layer (repro.net.resilience).
    LINK_SUSPECT = "link-suspect"        # receive silence past the timeout
    LINK_PROBE = "link-probe"            # reactive liveness probe dispatched
    LINK_DEAD = "link-dead"              # probe unanswered; teardown fires

    # Cluster-level events recorded by the placement controller
    # (repro.cluster.controller): process fleet lifecycle, not tied to
    # one message or one node's engine.
    WORKER_SPAWN = "worker-spawn"        # a worker process was launched
    WORKER_DEAD = "worker-dead"          # crash/heartbeat-timeout confirmed
    NODE_PLACED = "node-placed"          # a node was placed on a worker
    NODE_REDEPLOYED = "node-redeployed"  # re-placed after its worker died
    RESPAWN_BACKOFF = "respawn-backoff"  # a crash-looping child delayed
    RESPAWN_EXHAUSTED = "respawn-exhausted"  # respawn budget spent; gave up
    CONTROL_FAULT = "control-fault"      # a control-plane anomaly short of a
                                         # death: registration refused, upward
                                         # frame dropped, background task failed

    # Federation events recorded by the root controller
    # (repro.cluster.federation): the controller-of-controllers tier.
    CONTROLLER_JOIN = "controller-join"  # a child controller registered
    CONTROLLER_DEAD = "controller-dead"  # child-controller loss confirmed
    SHARD_REDEPLOYED = "shard-redeployed"  # a dead child's whole shard
                                           # re-placed through the root policy

    # Membership-plane events (repro.membership): what the SWIM protocol
    # concluded about a peer, recorded at the node that concluded it.
    MEMBER_JOIN = "member-join"          # a new member entered the view
    MEMBER_SUSPECT = "member-suspect"    # probe silence raised suspicion
    MEMBER_REFUTE = "member-refute"      # a suspicion was refuted (alive)
    MEMBER_DEAD = "member-dead"          # suspicion expired unrefuted
    MEMBER_LEFT = "member-left"          # a graceful departure was gossiped

    # Churn-driver events (repro.membership.churn): ground-truth faults
    # the schedule injected, so traces separate injected churn from the
    # protocol's (possibly wrong) conclusions about it.
    CHURN_JOIN = "churn-join"            # schedule started a new node
    CHURN_CRASH = "churn-crash"          # schedule killed a node abruptly
    CHURN_LEAVE = "churn-leave"          # schedule stopped a node gracefully

    # Backpressure-routing events (repro.algorithms.routing): per-tick
    # forwarding decisions and backlog exchanges, recorded at the node
    # that made them.
    ROUTE_DECISION = "route-decision"    # a tick picked (commodity, next hop)
    BACKLOG_REPORT = "backlog-report"    # per-commodity backlogs sent upstream

    ALL = (SOURCE_EMIT, ENQUEUE, SWITCH_PICK, CREDIT_EXHAUSTED,
           DEFER, RETRY, FORWARD, DROP, DELIVER,
           LINK_SUSPECT, LINK_PROBE, LINK_DEAD,
           WORKER_SPAWN, WORKER_DEAD, NODE_PLACED, NODE_REDEPLOYED,
           RESPAWN_BACKOFF, RESPAWN_EXHAUSTED, CONTROL_FAULT,
           CONTROLLER_JOIN, CONTROLLER_DEAD, SHARD_REDEPLOYED,
           MEMBER_JOIN, MEMBER_SUSPECT, MEMBER_REFUTE, MEMBER_DEAD,
           MEMBER_LEFT, CHURN_JOIN, CHURN_CRASH, CHURN_LEAVE,
           ROUTE_DECISION, BACKLOG_REPORT)


def trace_id(msg: Message) -> str:
    """Deterministic id for one data message: ``sender/app#seq``.

    The id is memoized on the message (``Message._trace_id``): it is a
    pure function of immutable header fields, and recording sits on the
    engines' per-message path where re-rendering it per event would be
    the single largest telemetry cost.
    """
    tid = msg._trace_id
    if tid is None:
        tid = msg._trace_id = f"{msg.sender}/{msg.app}#{msg.seq}"
    return tid


@dataclass(frozen=True)
class TraceEvent:
    """One lifecycle step of one message, observed on one node."""

    time: float          # caller-supplied clock (virtual or monotonic)
    node: str            # where the event was observed
    event: str           # an EventType constant
    trace_id: str        # "" for events not tied to one message
    app: int = 0
    detail: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "time": self.time,
            "node": self.node,
            "event": self.event,
            "trace_id": self.trace_id,
            "app": self.app,
        }
        if self.detail:
            out["detail"] = self.detail
        return out


class Tracer:
    """A bounded, append-only buffer of :class:`TraceEvent` s.

    The buffer is a ring: once ``capacity`` events are held the oldest
    are discarded (``dropped`` counts them), so a long-running deployment
    can leave tracing on without unbounded memory growth.
    """

    def __init__(self, capacity: int = 65536, enabled: bool = True,
                 sample: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if sample < 1:
            raise ValueError(f"sample must be >= 1, got {sample}")
        self.capacity = capacity
        self.enabled = enabled
        #: head-based sampling: record lifecycle events only for data
        #: messages whose ``seq % sample == 0``.  The sequence number is
        #: part of the immutable header and survives both by-reference
        #: forwarding and wire re-decoding, so a sampled message carries
        #: its *complete* source→sink lifecycle while 1/sample of the
        #: trace volume is paid.  ``1`` (the default) traces everything;
        #: port-level events (e.g. credit exhaustion) are never sampled
        #: away since they are not tied to one message.
        self.sample = sample
        # The ring is six preallocated parallel lists indexed by one
        # cursor, not a deque of per-event objects.  A slot *store*
        # allocates no GC-tracked container, so steady-state recording
        # keeps the interpreter's allocation counters balanced — a
        # tuple-per-event ring keeps tens of thousands of young tuples
        # alive and drives continuous gen0/gen1 collections, which cost
        # far more than the appends themselves.  Events are materialized
        # lazily on read.
        self._times: list[float] = [0.0] * capacity
        self._nodes: list[str] = [""] * capacity
        self._kinds: list[str] = [""] * capacity
        self._tids: list[str] = [""] * capacity
        self._apps: list[int] = [0] * capacity
        self._details: list[dict | None] = [None] * capacity
        self._cursor = 0  # next slot to write (== oldest once wrapped)
        self._recorded = 0
        self._dump_positions: dict[str, int] = {}

    def record(
        self,
        time: float,
        node: str,
        event: str,
        trace_id: str = "",
        app: int = 0,
        **detail: Any,
    ) -> None:
        if not self.enabled:
            return
        self.append_raw(time, node, event, trace_id, app, detail)

    def append_raw(
        self,
        time: float,
        node: str,
        event: str,
        trace_id: str,
        app: int,
        detail: dict,
    ) -> None:
        """Hot-path append: the caller has already checked ``enabled``
        and passes an interned (treat-as-immutable) ``detail`` dict, so
        no per-event container is allocated."""
        i = self._cursor
        self._times[i] = time
        self._nodes[i] = node
        self._kinds[i] = event
        self._tids[i] = trace_id
        self._apps[i] = app
        self._details[i] = detail
        i += 1
        self._cursor = 0 if i == self.capacity else i
        self._recorded += 1

    # --- introspection ---------------------------------------------------------

    def _slots(self) -> range:
        """Ring slot indices in recording order (oldest first)."""
        held = min(self._recorded, self.capacity)
        if self._recorded <= self.capacity:
            return range(held)
        start = self._cursor  # oldest surviving slot once wrapped
        return range(start, start + held)

    def _event_at(self, slot: int) -> TraceEvent:
        i = slot % self.capacity
        return TraceEvent(
            self._times[i], self._nodes[i], self._kinds[i],
            self._tids[i], self._apps[i], self._details[i] or {},
        )

    def __len__(self) -> int:
        return min(self._recorded, self.capacity)

    def __iter__(self) -> Iterator[TraceEvent]:
        return (self._event_at(slot) for slot in self._slots())

    @property
    def recorded(self) -> int:
        """Total events ever recorded (including since-discarded ones)."""
        return self._recorded

    @property
    def dropped(self) -> int:
        """Events discarded because the ring buffer wrapped."""
        return self._recorded - len(self)

    def events(self) -> list[TraceEvent]:
        return [self._event_at(slot) for slot in self._slots()]

    def events_since(self, cursor: int) -> tuple[list[TraceEvent], int]:
        """Events recorded after position ``cursor`` (a prior ``recorded``
        value) that the ring still holds, plus the new cursor.

        This is the incremental-read primitive the aggregating observer
        proxy flushes with: each flush forwards only fresh events and
        remembers where it stopped.  Events that aged out of the ring
        between reads are simply unavailable (the ring's ``dropped``
        counter accounts for them).
        """
        start = max(min(cursor, self._recorded), self.dropped)
        events = [self._event_at(slot)
                  for slot in self._slots()[start - self.dropped:]]
        return events, self._recorded

    def ingest(self, events: Iterable[dict[str, Any]]) -> int:
        """Append event dicts produced by :meth:`TraceEvent.to_dict`.

        The root observer rebuilds its fleet-wide tracer from the event
        batches that aggregation frames carry upward; ids forwarded from
        worker tracers keep stitching because they are pure functions of
        the immutable message header.  Returns how many were appended;
        an event that does not decode is skipped.
        """
        count = 0
        for event in events:
            try:
                decoded = (
                    float(event.get("time", 0.0)),
                    str(event.get("node", "")),
                    str(event.get("event", "")),
                    str(event.get("trace_id", "")),
                    int(event.get("app", 0)),
                    event.get("detail") or {},
                )
            except (AttributeError, TypeError, ValueError, OverflowError):
                continue
            self.append_raw(*decoded)
            count += 1
        return count

    def events_for(self, trace_id: str) -> list[TraceEvent]:
        """All events of one message, in time order."""
        return sorted(
            (self._event_at(slot) for slot in self._slots()
             if self._tids[slot % self.capacity] == trace_id),
            key=lambda event: event.time,
        )

    def trace_ids(self) -> list[str]:
        """Distinct message ids present in the buffer, insertion order."""
        seen: dict[str, None] = {}
        for slot in self._slots():
            tid = self._tids[slot % self.capacity]
            if tid:
                seen.setdefault(tid, None)
        return list(seen)

    def path(self, trace_id: str) -> list[str]:
        """The sequence of nodes the message visited (dedup-adjacent)."""
        nodes: list[str] = []
        for event in self.events_for(trace_id):
            if not nodes or nodes[-1] != event.node:
                nodes.append(event.node)
        return nodes

    def clear(self) -> None:
        if self._recorded:
            self._times[:] = [0.0] * self.capacity
            self._nodes[:] = [""] * self.capacity
            self._kinds[:] = [""] * self.capacity
            self._tids[:] = [""] * self.capacity
            self._apps[:] = [0] * self.capacity
            self._details[:] = [None] * self.capacity
        self._cursor = 0
        self._recorded = 0
        self._dump_positions.clear()

    # --- persistence -----------------------------------------------------------

    def dump_jsonl(self, path: str | Path, append: bool = True) -> int:
        """Write events as JSON lines; returns how many were written.

        With ``append=True`` only events not yet written *to this path*
        are appended (incremental dumps from a periodic flusher); with
        ``append=False`` the file is rewritten atomically in full.
        """
        path = Path(path)
        key = str(path)
        if append:
            start = min(self._dump_positions.get(key, 0), self._recorded)
            # Events older than the ring window were discarded and can
            # no longer be written; skip ahead past them.
            start = max(start, self.dropped)
            events = [self._event_at(slot)
                      for slot in self._slots()[start - self.dropped:]]
            with path.open("a") as fh:
                for event in events:
                    fh.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
            self._dump_positions[key] = self._recorded
            return len(events)
        events = self.events()
        tmp = path.with_name(path.name + ".tmp")
        with tmp.open("w") as fh:
            for event in events:
                fh.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
        os.replace(tmp, path)
        self._dump_positions[key] = self._recorded
        return len(events)
