"""The algorithm layer: the paper's ``iAlgorithm`` base class.

The interface between iOverlay and algorithms (Section 2.3) is designed
so that:

- the algorithm only ever calls **one** engine function, ``send``;
- the algorithm is completely **message driven** — it passively
  processes messages as they arrive or are produced by the engine;
- the algorithm runs in a **single logical thread**, so it never needs
  thread-safe data structures;
- unhandled message types fall through to default handlers supplied by
  the base class; the only type an algorithm *must* handle is ``DATA``.

An algorithm may also return :data:`Disposition.HOLD` from ``process``
for a data message, telling the engine the message is buffered inside
the algorithm awaiting companions from other incoming connections (the
n-to-m merging/coding mechanism of Section 2.2).
"""

from __future__ import annotations

import random
from enum import Enum
from typing import Callable, Iterable, Protocol, runtime_checkable

from repro.core.ids import AppId, NodeId
from repro.core.message import Message
from repro.core.msgtypes import MsgType
from repro.core.stats import LinkStatsSnapshot


class Disposition(Enum):
    """What the algorithm did with a message handed to ``process``."""

    DONE = "done"  # consumed or forwarded; the engine owes nothing further
    HOLD = "hold"  # buffered inside the algorithm, awaiting companions


@runtime_checkable
class EngineServices(Protocol):
    """The narrow engine surface visible to an algorithm.

    Engines (simulated or asyncio) implement this protocol; algorithms
    depend only on it, which is what makes them portable between the two
    substrates.
    """

    @property
    def node_id(self) -> NodeId:
        """Identity of the node hosting this algorithm."""

    def now(self) -> float:
        """Current time in seconds (virtual or wall-clock)."""

    def send(self, msg: Message, dest: NodeId) -> None:
        """Queue ``msg`` for delivery to ``dest``.

        The paper's single engine entry point.  Returns nothing; all
        abnormal outcomes (dead destination, torn-down link) surface
        later as engine-produced messages, never as exceptions here.
        """

    def send_to_observer(self, msg: Message) -> None:
        """Queue ``msg`` for the observer (status, traces, bootstrap)."""

    def upstreams(self) -> list[NodeId]:
        """Nodes with an incoming connection to this node."""

    def downstreams(self) -> list[NodeId]:
        """Nodes this node has an outgoing connection to."""

    def link_stats(self, peer: NodeId) -> LinkStatsSnapshot | None:
        """Most recent QoS measurements for the link to/from ``peer``."""

    def start_source(self, app: AppId, payload_size: int) -> None:
        """Deploy an application data source on this node."""

    def stop_source(self, app: AppId) -> None:
        """Terminate a previously deployed application source."""

    def set_timer(self, delay: float, token: int = 0) -> None:
        """Arm a one-shot timer: a ``TIMER`` message carrying ``token``
        is delivered to the algorithm after ``delay`` seconds."""

    def measure(self, peer: NodeId) -> None:
        """Probe round-trip latency (and report the current link rate) to
        ``peer``; the result arrives as a ``MEASURE_REPLY`` message."""

    def queue_snapshot(self) -> dict:
        """O(1)-per-port queue depths/bytes (``recv``/``send``/totals).

        The switch maintains these gauges incrementally, so stateful
        routing algorithms may poll every tick; the same snapshot rides
        the periodic STATUS report as the ``queues`` field."""


Handler = Callable[[Message], "Disposition | None"]


class KnownHosts:
    """The set of overlay nodes this node has learned about.

    Populated from the observer's bootstrap reply and from algorithm
    traffic; consulted by gossip-style dissemination.
    """

    def __init__(self) -> None:
        self._hosts: dict[NodeId, None] = {}  # insertion-ordered set

    def add(self, node: NodeId) -> None:
        self._hosts.setdefault(node, None)

    def discard(self, node: NodeId) -> None:
        self._hosts.pop(node, None)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._hosts

    def __len__(self) -> int:
        return len(self._hosts)

    def __iter__(self):
        return iter(self._hosts)

    def as_list(self) -> list[NodeId]:
        return list(self._hosts)

    def sample(self, k: int, rng: random.Random) -> list[NodeId]:
        """Up to ``k`` distinct known hosts, chosen uniformly."""
        hosts = self.as_list()
        if len(hosts) <= k:
            return hosts
        return rng.sample(hosts, k)


class Algorithm:
    """Base class for application-specific algorithms (``iAlgorithm``).

    Subclasses override the ``on_*`` hooks they care about, or register
    handlers for their own message types with :meth:`register`.  The
    dispatch is the pythonic equivalent of the paper's ``switch``
    statement skeleton (Table 2).
    """

    def __init__(self, seed: int | None = None) -> None:
        self.known_hosts = KnownHosts()
        self.rng = random.Random(seed)
        self._zero_payload: bytes | None = None
        self._services: EngineServices | None = None
        self._handlers: dict[int, Handler] = {
            MsgType.BOOT_REPLY: self._on_boot_reply,
            MsgType.DATA: self.on_data,
            MsgType.S_DEPLOY: self.on_deploy,
            MsgType.S_TERMINATE: self.on_terminate_source,
            MsgType.BROKEN_SOURCE: self.on_broken_source,
            MsgType.BROKEN_LINK: self.on_broken_link,
            MsgType.NEW_UPSTREAM: self.on_new_upstream,
            MsgType.UP_THROUGHPUT: self.on_up_throughput,
            MsgType.DOWN_THROUGHPUT: self.on_down_throughput,
            MsgType.REQUEST: self.on_status_request,
            MsgType.CONTROL: self.on_control,
            MsgType.TIMER: self._dispatch_timer,
            MsgType.MEASURE_REPLY: self._dispatch_measure_reply,
        }

    # --- lifecycle -----------------------------------------------------------------

    def bind(self, services: EngineServices) -> None:
        """Attach the hosting engine.  Called once before any message."""
        self._services = services

    @property
    def engine(self) -> EngineServices:
        """The hosting engine's services (valid after :meth:`bind`)."""
        if self._services is None:
            raise RuntimeError("algorithm is not bound to an engine yet")
        return self._services

    @property
    def node_id(self) -> NodeId:
        return self.engine.node_id

    def on_start(self) -> None:
        """Hook invoked once the engine is running (timers, announcements)."""

    def on_stop(self) -> None:
        """Hook invoked when the node terminates gracefully."""

    # --- dispatch -------------------------------------------------------------------

    def register(self, type_: int, handler: Handler) -> None:
        """Install ``handler`` for messages of ``type_`` (overrides defaults)."""
        self._handlers[type_] = handler

    def process(self, msg: Message) -> Disposition | None:
        """Entry point called by the engine for every non-engine message."""
        # ``or``, not a ``get`` default: that would bind ``on_unhandled``
        # for every message, handled or not
        return (self._handlers.get(msg._type) or self.on_unhandled)(msg)

    # --- the one engine call + conveniences --------------------------------------------

    # The sends run per message (and destination) on every relay, so they
    # read ``_services`` directly; the ``engine`` property is reached only
    # while unbound, to raise its error.

    def send(self, msg: Message, dest: NodeId) -> None:
        """Forward/send a message to a downstream or peer node."""
        (self._services or self.engine).send(msg, dest)

    def send_many(self, msg: Message, dests: Iterable[NodeId]) -> None:
        """Send (by reference) to every destination in ``dests``."""
        for dest in dests:
            (self._services or self.engine).send(msg, dest)

    def disseminate(self, msg: Message, nodes: Iterable[NodeId], p: float = 1.0) -> int:
        """Send ``msg`` to each node with probability ``p`` (gossip).

        Returns the number of nodes the message was actually sent to.
        This is the ``disseminate`` utility the paper provides in
        ``iAlgorithm``.
        """
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {p}")
        sent = 0
        for node in nodes:
            if node == self.node_id:
                continue
            if p >= 1.0 or self.rng.random() < p:
                (self._services or self.engine).send(msg, node)
                sent += 1
        return sent

    def trace(self, text: str, app: AppId = 0, about: Message | None = None) -> None:
        """Log a trace record centrally at the observer.

        With ``about`` the record is stamped with that message's
        deterministic trace id (``sender/app#seq``) — derived from the
        immutable wire header, so traces about the same logical message
        carry the identical id on every backend and on every worker it
        crossed, and the observer can stitch them into one causal view.
        """
        if about is None:
            msg = Message(MsgType.TRACE, self.node_id, app, text.encode())
        else:
            from repro.telemetry.tracing import trace_id

            msg = Message.with_fields(
                MsgType.TRACE, self.node_id, app, text=text, trace_id=trace_id(about)
            )
        self.engine.send_to_observer(msg)

    # --- default handlers (overridable) ----------------------------------------------

    def on_data(self, msg: Message) -> Disposition | None:
        """Handle an application data message.  Default: consume silently."""
        return Disposition.DONE

    def on_deploy(self, msg: Message) -> Disposition | None:
        """Observer asked this node to become an application source."""
        fields = msg.fields()
        self.engine.start_source(int(fields["app"]), int(fields.get("payload_size", 5120)))
        return Disposition.DONE

    def on_terminate_source(self, msg: Message) -> Disposition | None:
        fields = msg.fields()
        self.engine.stop_source(int(fields["app"]))
        return Disposition.DONE

    def on_broken_source(self, msg: Message) -> Disposition | None:
        """An upstream application source failed; clear related state."""
        return Disposition.DONE

    def on_broken_link(self, msg: Message) -> Disposition | None:
        """An adjacent link was torn down; default drops the peer from KnownHosts."""
        fields = msg.fields()
        self.known_hosts.discard(NodeId.parse(fields["peer"]))
        return Disposition.DONE

    def on_new_upstream(self, msg: Message) -> Disposition | None:
        return Disposition.DONE

    def on_up_throughput(self, msg: Message) -> Disposition | None:
        """Periodic throughput measurement from an upstream link."""
        return Disposition.DONE

    def on_down_throughput(self, msg: Message) -> Disposition | None:
        """Periodic throughput measurement to a downstream link."""
        return Disposition.DONE

    def on_status_request(self, msg: Message) -> Disposition | None:
        """Observer asked for algorithm-specific status.  Default: nothing.

        The engine answers with its own status report regardless; this
        hook lets algorithms append their own fields via traces.
        """
        return Disposition.DONE

    def on_control(self, msg: Message) -> Disposition | None:
        """Generic observer command with two optional integer parameters."""
        return Disposition.DONE

    def on_unhandled(self, msg: Message) -> Disposition | None:
        """Fallback for types with no registered handler: consume."""
        return Disposition.DONE

    def _dispatch_timer(self, msg: Message) -> Disposition | None:
        return self.on_timer(int(msg.fields().get("token", 0)))

    def on_timer(self, token: int) -> Disposition | None:
        """A timer armed with ``engine.set_timer`` fired."""
        return Disposition.DONE

    def _dispatch_measure_reply(self, msg: Message) -> Disposition | None:
        fields = msg.fields()
        return self.on_measure_reply(
            NodeId.parse(fields["peer"]), float(fields["rtt"]), float(fields["send_rate"])
        )

    def on_measure_reply(
        self, peer: NodeId, rtt: float, send_rate: float
    ) -> Disposition | None:
        """An on-demand measurement requested via ``engine.measure`` returned."""
        return Disposition.DONE

    # --- internal defaults ---------------------------------------------------------------

    def _on_boot_reply(self, msg: Message) -> Disposition | None:
        """Record the observer-supplied set of initial nodes (``KnownHosts``)."""
        for text in msg.fields().get("hosts", []):
            self.known_hosts.add(NodeId.parse(text))
        self.on_bootstrapped()
        return Disposition.DONE

    def on_bootstrapped(self) -> None:
        """Hook invoked after the bootstrap reply has been recorded."""

    # --- the application layer (the paper's third tier) -------------------------

    def produce_payload(self, app: AppId, seq: int, size: int) -> bytes:
        """Produce the data portion of source message ``seq``.

        The paper separates the *application* — "which produces and
        interprets the data portion of application-layer messages" —
        from the algorithm.  Engines call this hook for every message a
        local source emits; applications (e.g. the streaming layer in
        :mod:`repro.apps.streaming`) override it to generate real
        content.  The default is a cached zero block, so plain
        throughput workloads stay allocation-free.
        """
        cached = self._zero_payload
        if cached is None or len(cached) != size:
            cached = bytes(size)
            self._zero_payload = cached
        return cached
