"""Switching bookkeeping: receiver ports, pending forwards, WRR order.

The engine thread "switches data messages from the receiver buffers to
the sender buffers in a weighted round-robin fashion, with dynamically
tunable weights" (Section 2.2).  When a message is successfully
forwarded to only a subset of its intended destinations (some sender
buffers full), the engine "labels each message with its set of remaining
senders, so that they may be tried in the next round."

This module holds that pure bookkeeping, shared by the simulated and the
asyncio engines:

- :class:`ReceiverPort` — one upstream connection's buffer, weight and
  at most one partially-forwarded message,
- :class:`PendingForward` — a message plus its remaining destinations,
- :class:`SwitchScheduler` — the rotating weighted round-robin order.

A port with a pending forward is *blocked*: no further message is taken
from its buffer until the pending one has fully left.  With small
buffers this is exactly the mechanism that produces the paper's back
pressure (Fig. 6b); with large buffers the pressure is delayed (Fig. 7).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.core.buffer import BoundedQueue
from repro.core.ids import AppId, NodeId
from repro.core.message import Message
from repro.core.stats import LinkStats


@dataclass
class PendingForward:
    """A message that still owes deliveries to ``remaining`` destinations."""

    msg: Message
    remaining: list[NodeId]

    @property
    def done(self) -> bool:
        return not self.remaining


def drop_dest(forwards: list[PendingForward], dest: NodeId) -> list[Message]:
    """Strike ``dest`` from ``forwards``; the messages that still owed it."""
    owed = []
    for forward in forwards:
        if dest in forward.remaining:
            forward.remaining = [node for node in forward.remaining if node != dest]
            owed.append(forward.msg)
    return owed


@dataclass
class ReceiverPort:
    """Engine-side state of one incoming connection.

    ``buffer`` is any bounded FIFO exposing ``is_empty``, ``__len__``
    and the ``on_size_change`` listener.  The engines build a
    :class:`~repro.core.buffer.BoundedQueue`: a receiving end that finds
    it full keeps the message in hand until its ``on_space`` (back
    pressure); unit tests may use a plain ``CircularBuffer``.

    Who keeps the gauges exact: every placement (a receiving end's
    put), drain and clear reports through the buffer's listener
    (message counts) and :meth:`note_bytes` (bytes).  The one mutation
    that does not is the engine's switch take, which runs once per
    message: ``EngineCore._switch_round`` pops the buffer's deque
    itself and settles ``buffered_bytes`` and the scheduler's
    ``_buffered`` / ``_buffered_bytes`` inline, before the algorithm
    sees the message.

    ``pending`` holds messages produced while processing this port's
    traffic that could not be fully forwarded (some sender buffers were
    full).  While any forward is pending the port is *blocked*: no new
    message is taken from its buffer, preserving per-port FIFO order.
    """

    peer: NodeId
    buffer: "BoundedQueue[Message]"
    weight: int = 1
    pending: list[PendingForward] = field(default_factory=list)
    #: back-reference set by :meth:`SwitchScheduler.add_port`; lets the
    #: scheduler maintain its incremental work counters
    scheduler: "SwitchScheduler | None" = field(init=False, default=None, repr=False)
    #: whether this port is currently counted in the scheduler's
    #: pending-ports tally (kept exact by add_pending/prune_pending)
    _pending_counted: bool = field(init=False, default=False, repr=False)
    #: messages the algorithm HOLDs are charged here for observability
    held: int = 0
    #: inbound link statistics (throughput in, loss at teardown)
    stats: LinkStats = field(default_factory=LinkStats)
    #: cumulative messages taken off this port by switch rounds
    switched: int = 0
    #: cumulative sends from this port deferred on a full sender buffer
    deferred: int = 0
    #: deficit-round-robin credit: messages this port may still move in
    #: the current credit epoch.  Consumed as messages *depart* the port
    #: (processed without pending, or a pending forward completing), so
    #: the weight ratio holds even when the contended resource is a full
    #: sender buffer and every message goes through the pending path.
    credit: int = 1
    #: cached ``str(peer)``: telemetry labels this port without paying
    #: NodeId formatting/hashing per message
    label: str = field(init=False, default="")
    #: enqueue timestamps of buffered data messages, FIFO-parallel to
    #: ``buffer`` — feeds the telemetry queue-wait histogram (engines
    #: only touch it when telemetry is enabled)
    wait_times: deque = field(init=False, default_factory=deque)
    #: last credit epoch for which a CREDIT_EXHAUSTED trace event was
    #: emitted — the trace carries one event per port per epoch (the
    #: metric still counts every skipped visit)
    stall_epoch: int = field(init=False, default=-1)
    #: payload+header bytes currently sitting in ``buffer``.  The size
    #: listener only reports message *counts*, so the engines charge
    #: bytes explicitly where they place via :meth:`note_bytes`, and the
    #: switch take refunds them inline — which keeps the per-port and
    #: scheduler-wide byte gauges O(1) to read (no buffer scan).
    buffered_bytes: int = field(init=False, default=0)
    #: applications whose data this port has switched, in first-seen
    #: order (an insertion-ordered set): the BROKEN_SOURCE domino asks
    #: the live ports whether any still carries an application
    apps: dict[AppId, None] = field(init=False, default_factory=dict)

    def __post_init__(self) -> None:
        self.label = str(self.peer)

    def note_bytes(self, delta: int) -> None:
        """Charge (or refund, negative ``delta``) buffered bytes."""
        self.buffered_bytes += delta
        if self.scheduler is not None:
            self.scheduler._buffered_bytes += delta

    @property
    def blocked(self) -> bool:
        """True while a partially-forwarded message occupies this port."""
        if not self.pending:  # the common case: skip the genexpr
            return False
        return any(not forward.done for forward in self.pending)

    def add_pending(self, forward: PendingForward) -> None:
        """Register a partially-forwarded message (keeps counters exact).

        Only forwards that still owe deliveries count toward the
        scheduler's pending-ports tally — a done forward is pruning
        debt, not work.
        """
        self.pending.append(forward)
        if not forward.done and not self._pending_counted and self.scheduler is not None:
            self._pending_counted = True
            self.scheduler._pending_ports += 1

    def prune_pending(self) -> None:
        """Drop completed forwards."""
        if self.pending:
            self.pending = [forward for forward in self.pending if not forward.done]
        # Resync the scheduler's pending-ports tally with reality; this
        # also repairs counts for tests that append to ``pending``
        # directly instead of via add_pending.
        if self.scheduler is not None and self._pending_counted != bool(self.pending):
            self._pending_counted = bool(self.pending)
            self.scheduler._pending_ports += 1 if self._pending_counted else -1

    def discard_dest(self, dest: NodeId) -> list[Message]:
        """Remove a (dead) destination from every pending forward.

        Returns the messages that still owed ``dest`` a delivery, so the
        caller can count them lost with the link.
        """
        owed = drop_dest(self.pending, dest)
        self.prune_pending()
        return owed

    def has_work(self) -> bool:
        """True if the buffer holds messages or a forward owes deliveries.

        Forwards already completed in place (``remaining`` emptied) but
        not yet pruned are *not* work — this keeps the engines' credit
        epoch check aligned with what a switch pass can actually move.
        """
        if not self.buffer.is_empty:
            return True
        for forward in self.pending:
            if not forward.done:
                return True
        return False


class SwitchScheduler:
    """Rotating weighted round-robin over receiver ports.

    Each call to :meth:`rotation` yields every registered port exactly
    once, starting after the port that ended the previous rotation, so
    no port can starve another.  Weights are consumed by the engine
    (``weight`` messages per visit); they may be retuned at runtime.
    """

    def __init__(self) -> None:
        self._ports: dict[NodeId, ReceiverPort] = {}
        #: ports in registration order — the rotation source, kept so a
        #: pass never rebuilds dict lookups
        self._seq: list[ReceiverPort] = []
        #: reused output list handed out by :meth:`rotation`; valid until
        #: the next call (engines consume each pass before requesting
        #: another, so aliasing is safe)
        self._pass: list[ReceiverPort] = []
        self._cursor = 0
        # Incrementally maintained work counters: total messages sitting
        # in receiver buffers (fed by buffer size listeners, except for
        # the engine's switch take, which settles them inline: see
        # ReceiverPort) and number of ports with a non-empty pending
        # list (fed by ReceiverPort).
        self._buffered = 0
        self._buffered_bytes = 0
        self._pending_ports = 0
        #: cumulative credit epochs started (telemetry reads this)
        self.epochs = 0

    # --- registry -------------------------------------------------------------------

    def _on_buffer_delta(self, delta: int) -> None:
        self._buffered += delta

    def add_port(self, port: ReceiverPort) -> None:
        if port.peer in self._ports:
            raise ValueError(f"duplicate receiver port for {port.peer}")
        port.credit = port.weight
        port.scheduler = self
        self._ports[port.peer] = port
        self._seq.append(port)
        if port.blocked:
            port._pending_counted = True
            self._pending_ports += 1
        else:
            port._pending_counted = False
        port.buffer.on_size_change = self._on_buffer_delta
        self._buffered += len(port.buffer)
        # Byte accounting is explicit (note_bytes where the engine
        # places, inline at its switch take), so a port arriving with
        # charged bytes just folds them into the scheduler-wide gauge.
        self._buffered_bytes += port.buffered_bytes

    def remove_port(self, peer: NodeId) -> ReceiverPort | None:
        port = self._ports.pop(peer, None)
        if port is not None:
            index = self._seq.index(port)
            self._seq.pop(index)
            if port._pending_counted:
                self._pending_ports -= 1
                port._pending_counted = False
            port.scheduler = None
            # Every mutation since add_port flowed through the listener
            # or the switch take's inline settlement, so the buffer's
            # current length is exactly its share.
            port.buffer.on_size_change = None
            self._buffered -= len(port.buffer)
            self._buffered_bytes -= port.buffered_bytes
            # Drop the reused rotation list's references to the removed
            # port so a caller-held pass cannot see it after removal.
            self._pass.clear()
            if index < self._cursor:
                self._cursor -= 1
            self._cursor = self._cursor % len(self._seq) if self._seq else 0
        return port

    def get_port(self, peer: NodeId) -> ReceiverPort | None:
        return self._ports.get(peer)

    def set_weight(self, peer: NodeId, weight: int) -> None:
        """Dynamically retune a port's round-robin weight."""
        if weight < 1:
            raise ValueError(f"weight must be >= 1, got {weight}")
        port = self._ports.get(peer)
        if port is None:
            raise KeyError(f"no receiver port for {peer}")
        port.weight = weight
        port.credit = min(port.credit, weight)

    def replenish_credits(self, scale: int = 1) -> None:
        """Start a new deficit-round-robin epoch: credit = weight * scale.

        ``scale`` coarsens the epoch without touching fairness: every
        port's allowance grows by the same factor, so the *ratio*
        between competing upstreams is preserved while each round moves
        a batch instead of a single message (the asyncio backend uses
        this to amortize per-round scheduler overhead).
        """
        self.epochs += 1
        for port in self._seq:
            port.credit = port.weight * scale

    @property
    def ports(self) -> list[ReceiverPort]:
        return list(self._seq)

    def ports_view(self) -> list[ReceiverPort]:
        """The live registration-order port list (do not mutate).

        Engines iterate this per round; unlike :attr:`ports` it does not
        allocate a copy.
        """
        return self._seq

    def __len__(self) -> int:
        return len(self._ports)

    # --- scheduling -------------------------------------------------------------------

    def rotation(self) -> list[ReceiverPort]:
        """One full round-robin pass, resuming after the previous pass.

        The returned list ALIASES internal state: it is reused across
        calls (one allocation per scheduler, not per engine pass), so
        each call overwrites the list handed out by the previous one.
        Callers must finish with a pass before requesting the next and
        must not hold the result across calls; :meth:`remove_port`
        clears it so a stale alias can never resurrect a removed port.
        """
        seq = self._seq
        count = len(seq)
        if not count:
            return []
        cursor = self._cursor
        ordered = self._pass
        if len(ordered) != count:
            ordered = self._pass = [None] * count  # type: ignore[list-item]
        split = count - cursor
        ordered[:split] = seq[cursor:]
        ordered[split:] = seq[:cursor]
        self._cursor = cursor + 1 if cursor + 1 < count else 0
        return ordered

    def has_work(self) -> bool:
        """True if any port has buffered or pending messages (O(1))."""
        return self._buffered > 0 or self._pending_ports > 0

    def pending_ports(self) -> int:
        """Ports blocked on a pending forward (the exact tally, O(1)).

        Such a port can only move again once a sender buffer frees a
        slot (or its destination goes away), so this is what a sender
        consults before waking the engine.  A forward completed in place
        keeps its port counted until the next ``prune_pending``.
        """
        return self._pending_ports

    def total_buffered(self) -> int:
        """Total messages waiting across all receiver buffers (O(1))."""
        return self._buffered

    def total_buffered_bytes(self) -> int:
        """Total bytes waiting across all receiver buffers (O(1))."""
        return self._buffered_bytes

    def queue_snapshot(self) -> dict[str, tuple[int, int]]:
        """Per-port ``label -> (depth, buffered_bytes)``, O(ports).

        Depth reads each buffer's maintained ``__len__`` and bytes read
        the :meth:`ReceiverPort.note_bytes` gauge — no message is
        touched, so routing algorithms may call this every tick.
        """
        return {
            port.label: (len(port.buffer), port.buffered_bytes)
            for port in self._seq
        }
