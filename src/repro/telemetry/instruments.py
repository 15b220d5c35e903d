"""Pre-bound instrument handles for the message-switching engines.

Both engines (the virtual-time :class:`~repro.sim.engine.SimEngine` and
the asyncio :class:`~repro.net.engine.AsyncioEngine`) record the same
metric families under the same names, so experiments and dashboards read
identically whichever substrate ran.  One :class:`EngineInstruments` is
created per engine at start-up.

The hot path is **collect-on-scrape** (the Prometheus collector
pattern): per-event recording is a plain integer increment on a shadow
counter (``ins.enqueued[label] += 1`` — one dict ``+=``, no method
calls), and the shadows are folded into the registry's labelled children
only when a snapshot or export is taken (:meth:`collect`, driven by
:meth:`Telemetry.snapshot <repro.telemetry.Telemetry.snapshot>`).  Only
the two latency/batch histograms observe per event, and lifecycle trace
appends go through one thin call (:meth:`trace_msg`) guarded by the
caller's ``tracer.enabled`` check.

Metric catalog (all prefixed ``ioverlay_``): see docs/observability.md.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Mapping

from repro.telemetry.metrics import CounterChild, GaugeChild
from repro.telemetry.tracing import EventType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.message import Message
    from repro.telemetry import Telemetry

#: Queue-wait buckets: sub-millisecond switching up to multi-second
#: back-pressure stalls (virtual or wall seconds).
QUEUE_WAIT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0)

#: Switch-round batch-size buckets (messages moved per round).
BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

# Shared, treat-as-immutable detail dicts: trace events reference these
# instead of allocating a dict per append.
_NO_DETAIL: dict = {}
_RETRY_DONE = {"completed": True}
_RETRY_PARTIAL = {"completed": False}


class EngineInstruments:
    """One engine's shadow counters, bound histograms and tracer handle."""

    def __init__(self, telemetry: "Telemetry", node: str) -> None:
        self.telemetry = telemetry
        self.tracer = telemetry.tracer
        self.node = node
        reg = telemetry.registry

        # --- per-peer shadow counters (engine hot path does `+= 1`) ----
        self.switched: defaultdict[str, int] = defaultdict(int)
        self.credit_stalls: defaultdict[str, int] = defaultdict(int)
        self.defers: defaultdict[str, int] = defaultdict(int)
        self.forwarded: defaultdict[str, int] = defaultdict(int)
        self.enqueued: defaultdict[str, int] = defaultdict(int)
        self.backpressure: defaultdict[str, int] = defaultdict(int)

        # --- node-level shadow counters --------------------------------
        self.n_switch_rounds = 0
        self.n_credit_epochs = 0
        self.n_retries = 0
        self.n_retry_completions = 0
        self.n_drops = 0
        self.n_dropped_bytes = 0
        self.n_domino = 0
        self.n_source = 0
        self.n_delivers = 0
        # resilience layer (repro.net.resilience / net engine supervisor)
        self.n_suspects = 0
        self.n_probes = 0
        self.n_inactivity_deaths = 0
        self.n_connect_failures = 0
        self.n_observer_drops = 0
        self.n_observer_reconnects = 0

        self._switched_metric = reg.counter(
            "ioverlay_engine_switched_messages_total",
            "Data messages moved from a receiver port by switch rounds",
            ("node", "peer"),
        )
        self._credit_metric = reg.counter(
            "ioverlay_engine_credit_stalls_total",
            "Port visits skipped because the WRR credit was exhausted",
            ("node", "peer"),
        )
        self._defer_metric = reg.counter(
            "ioverlay_engine_defers_total",
            "Data sends deferred on a full sender buffer (back pressure)",
            ("node", "peer"),
        )
        self._forward_metric = reg.counter(
            "ioverlay_engine_forwarded_messages_total",
            "Messages that left this node on an overlay link",
            ("node", "peer"),
        )
        self._enqueue_metric = reg.counter(
            "ioverlay_engine_enqueued_messages_total",
            "Data messages accepted into a receiver buffer",
            ("node", "peer"),
        )
        self._backpressure_metric = reg.counter(
            "ioverlay_link_backpressure_total",
            "Link deliveries that blocked on a full in-flight window",
            ("node", "peer"),
        )
        self._recv_gauge = reg.gauge(
            "ioverlay_engine_recv_buffer_messages",
            "Receiver buffer occupancy (messages)",
            ("node", "peer"),
        )
        self._send_gauge = reg.gauge(
            "ioverlay_engine_send_buffer_messages",
            "Sender buffer occupancy (messages)",
            ("node", "peer"),
        )
        self._broken_metric = reg.counter(
            "ioverlay_engine_broken_links_total",
            "Link failures observed, by direction (up/down/both)",
            ("node", "direction"),
        )
        self._stall_metric = reg.counter(
            "ioverlay_engine_bandwidth_stall_seconds_total",
            "Time spent waiting on the bandwidth throttle, by direction",
            ("node", "direction"),
        )

        self._c_switch_rounds: CounterChild = reg.counter(
            "ioverlay_engine_switch_rounds_total",
            "Weighted round-robin passes over the receiver ports",
            ("node",),
        ).labels(node=node)
        self._c_credit_epochs: CounterChild = reg.counter(
            "ioverlay_engine_credit_epochs_total",
            "Deficit-round-robin credit replenishments",
            ("node",),
        ).labels(node=node)
        self._c_retries: CounterChild = reg.counter(
            "ioverlay_engine_retries_total",
            "Retry attempts for partially-forwarded messages",
            ("node",),
        ).labels(node=node)
        self._c_retry_completions: CounterChild = reg.counter(
            "ioverlay_engine_retry_completions_total",
            "Partially-forwarded messages that completed on a retry",
            ("node",),
        ).labels(node=node)
        self._c_drops: CounterChild = reg.counter(
            "ioverlay_engine_dropped_messages_total",
            "Messages lost to failures or link teardown",
            ("node",),
        ).labels(node=node)
        self._c_dropped_bytes: CounterChild = reg.counter(
            "ioverlay_engine_dropped_bytes_total",
            "Bytes lost to failures or link teardown",
            ("node",),
        ).labels(node=node)
        self._c_domino: CounterChild = reg.counter(
            "ioverlay_engine_domino_teardowns_total",
            "BROKEN_SOURCE cascades forwarded downstream (domino effect)",
            ("node",),
        ).labels(node=node)
        self._c_source: CounterChild = reg.counter(
            "ioverlay_engine_source_messages_total",
            "Data messages produced by local application sources",
            ("node",),
        ).labels(node=node)
        self._c_delivers: CounterChild = reg.counter(
            "ioverlay_engine_delivered_messages_total",
            "Data messages consumed by the local algorithm (not re-sent)",
            ("node",),
        ).labels(node=node)
        self._c_suspects: CounterChild = reg.counter(
            "ioverlay_engine_link_suspects_total",
            "Peer links suspected after receive silence past the timeout",
            ("node",),
        ).labels(node=node)
        self._c_probes: CounterChild = reg.counter(
            "ioverlay_engine_liveness_probes_total",
            "Reactive liveness probes dispatched to suspect peers",
            ("node",),
        ).labels(node=node)
        self._c_inactivity_deaths: CounterChild = reg.counter(
            "ioverlay_engine_inactivity_deaths_total",
            "Links confirmed dead by an unanswered liveness probe",
            ("node",),
        ).labels(node=node)
        self._c_connect_failures: CounterChild = reg.counter(
            "ioverlay_engine_connect_failures_total",
            "Failed peer connect attempts (retried under backoff)",
            ("node",),
        ).labels(node=node)
        self._c_observer_drops: CounterChild = reg.counter(
            "ioverlay_engine_observer_drops_total",
            "Observer-bound messages dropped (outbox overflow or shutdown)",
            ("node",),
        ).labels(node=node)
        self._c_observer_reconnects: CounterChild = reg.counter(
            "ioverlay_engine_observer_reconnects_total",
            "Successful observer-link reconnections",
            ("node",),
        ).labels(node=node)

        # Histograms observe per event (distributions cannot be derived
        # from totals); the bound-method aliases skip a lookup per call.
        self._queue_wait = reg.histogram(
            "ioverlay_engine_queue_wait_seconds",
            "Receiver-buffer residence time of switched data messages",
            ("node",),
            buckets=QUEUE_WAIT_BUCKETS,
        ).labels(node=node)
        self.observe_wait = self._queue_wait.observe
        self._batch = reg.histogram(
            "ioverlay_engine_switch_batch_messages",
            "Messages moved per productive switch round",
            ("node",),
            buckets=BATCH_BUCKETS,
        ).labels(node=node)
        self.observe_batch = self._batch.observe
        # Per-hop node residence: enqueue (or source emit) to the forward
        # write that put the message on the outgoing link.  Rolled up the
        # observer tree, this is what gives the root true end-to-end
        # p50/p99 flow latency without shipping every trace event.
        self._hop = reg.histogram(
            "ioverlay_hop_latency_seconds",
            "Per-hop latency: arrival at a node to forward onto the next link",
            ("node",),
            buckets=QUEUE_WAIT_BUCKETS,
        ).labels(node=node)
        self.observe_hop = self._hop.observe

        # per-peer bound children, keyed by str(peer)
        self._by_peer: dict[tuple[str, str], CounterChild | GaugeChild] = {}
        # NodeId.__str__ is format work; trace ids reuse one cached
        # rendering per distinct sender instead of paying it per event.
        self._sender_strs: dict = {}
        # shared {"peer": label} detail dicts, one per peer label
        self._peer_details: dict[str, dict] = {}

    # ------------------------------------------------------------- child cache

    def _peer_child(self, metric, peer: str):
        key = (metric.name, peer)
        child = self._by_peer.get(key)
        if child is None:
            child = metric.labels(node=self.node, peer=peer)
            self._by_peer[key] = child
        return child

    def _tid(self, msg: "Message") -> str:
        """:func:`trace_id`, memoized on the message and with the sender
        rendering cached per NodeId (both are format/hash work the hot
        path should pay at most once per message)."""
        tid = msg._trace_id
        if tid is None:
            sender = self._sender_strs.get(msg.sender)
            if sender is None:
                sender = self._sender_strs[msg.sender] = str(msg.sender)
            tid = msg._trace_id = f"{sender}/{msg.app}#{msg.seq}"
        return tid

    # ------------------------------------------------------------ trace events
    #
    # Callers check ``ins.tracer.enabled`` first so a metrics-only run
    # never pays for trace-id construction.

    def trace_msg(self, time: float, event: str, msg: "Message",
                  peer: str | None = None) -> None:
        """Append one lifecycle event for ``msg`` to the trace ring.

        Everything is inlined into this one frame — the memoized trace
        id, the interned detail dict and the ring slot stores — because
        this runs for every lifecycle step of every (sampled) data
        message and extra call frames are the dominant per-event cost.
        Detail dicts are shared interned instances and ``msg._app``
        skips the property descriptor: the append allocates nothing but
        the (memoized) trace id.
        """
        tracer = self.tracer
        sample = tracer.sample
        if sample != 1 and msg.seq % sample:
            return
        tid = msg._trace_id
        if tid is None:
            sender = self._sender_strs.get(msg.sender)
            if sender is None:
                sender = self._sender_strs[msg.sender] = str(msg.sender)
            tid = msg._trace_id = f"{sender}/{msg._app}#{msg.seq}"
        if peer is None:
            detail = _NO_DETAIL
        else:
            detail = self._peer_details.get(peer)
            if detail is None:
                detail = self._peer_details[peer] = {"peer": peer}
        i = tracer._cursor
        tracer._times[i] = time
        tracer._nodes[i] = self.node
        tracer._kinds[i] = event
        tracer._tids[i] = tid
        tracer._apps[i] = msg._app
        tracer._details[i] = detail
        i += 1
        tracer._cursor = 0 if i == tracer.capacity else i
        tracer._recorded += 1

    def trace_port(self, time: float, event: str, peer: str) -> None:
        """Append a port-level event not tied to one message."""
        detail = self._peer_details.get(peer)
        if detail is None:
            detail = self._peer_details[peer] = {"peer": peer}
        self.tracer.append_raw(time, self.node, event, "", 0, detail)

    def trace_retry(self, time: float, msg: "Message", completed: bool) -> None:
        tracer = self.tracer
        sample = tracer.sample
        if sample != 1 and msg.seq % sample:
            return
        tracer.append_raw(
            time, self.node, EventType.RETRY, self._tid(msg), msg._app,
            _RETRY_DONE if completed else _RETRY_PARTIAL,
        )

    # ------------------------------------------------------------- rare events

    def on_broken_link(self, direction: str) -> None:
        self._broken_metric.labels(node=self.node, direction=direction).inc()

    def on_task_error(self, time: float, task: str, exc: BaseException) -> None:
        """An engine-owned task died of an exception.  The family is
        registered here, on first use, so it stays out of snapshots
        until something has failed."""
        self.telemetry.registry.counter(
            "ioverlay_engine_algorithm_errors_total",
            "Engine-owned tasks ended by an exception (an Algorithm hook raising)", ("node",),
        ).labels(node=self.node).inc()
        if self.tracer.enabled:
            detail = {"stage": "task", "task": task, "error": repr(exc)}
            self.tracer.append_raw(time, self.node, EventType.CONTROL_FAULT, "", 0, detail)

    def on_throttle_stall(self, direction: str, seconds: float) -> None:
        self._stall_metric.labels(node=self.node, direction=direction).inc(seconds)

    def set_buffer_gauges(
        self, recv: Mapping[str, int], send: Mapping[str, int]
    ) -> None:
        """Refresh occupancy gauges (called from the engine's report loop)."""
        for peer, depth in recv.items():
            self._peer_child(self._recv_gauge, peer).set(depth)
        for peer, depth in send.items():
            self._peer_child(self._send_gauge, peer).set(depth)

    # ---------------------------------------------------------------- scraping

    def collect(self) -> None:
        """Fold the shadow counters into the registry's children.

        Children are written only here, so ``child.value`` is exactly
        what was pushed on the previous collect and the delta keeps
        counters monotone.  Runs on every snapshot/export — the hot path
        never touches the registry.
        """
        for counts, metric in (
            (self.switched, self._switched_metric),
            (self.credit_stalls, self._credit_metric),
            (self.defers, self._defer_metric),
            (self.forwarded, self._forward_metric),
            (self.enqueued, self._enqueue_metric),
            (self.backpressure, self._backpressure_metric),
        ):
            for peer, count in counts.items():
                child = self._peer_child(metric, peer)
                if count > child.value:
                    child.inc(count - child.value)
        for value, child in (
            (self.n_switch_rounds, self._c_switch_rounds),
            (self.n_credit_epochs, self._c_credit_epochs),
            (self.n_retries, self._c_retries),
            (self.n_retry_completions, self._c_retry_completions),
            (self.n_drops, self._c_drops),
            (self.n_dropped_bytes, self._c_dropped_bytes),
            (self.n_domino, self._c_domino),
            (self.n_source, self._c_source),
            (self.n_delivers, self._c_delivers),
            (self.n_suspects, self._c_suspects),
            (self.n_probes, self._c_probes),
            (self.n_inactivity_deaths, self._c_inactivity_deaths),
            (self.n_connect_failures, self._c_connect_failures),
            (self.n_observer_drops, self._c_observer_drops),
            (self.n_observer_reconnects, self._c_observer_reconnects),
        ):
            if value > child.value:
                child.inc(value - child.value)
