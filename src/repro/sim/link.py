"""A simulated overlay connection between two nodes.

A :class:`SimLink` models one direction of a persistent TCP connection
as its in-flight window: a FIFO of ``(message, sent_at)`` pairs bounded
by ``socket_buffer``.  It runs no task of its own.  The sending engine
:meth:`~SimLink.push` es into it, the receiving engine
:meth:`~SimLink.take` s from it, and each end is told about changes
through one callback:

- ``on_push`` (the receiving end) after every push and on a break;
- ``on_take`` (the sending end) after every take and on a break.

Semantics the engines build on top:

- flow control: a sender whose message finds the window full keeps it
  in hand until a take frees a slot — a stalled receiver eventually
  blocks the sender.  The receiving end holds one message of its own
  while it waits out the latency, so up to ``socket_buffer + 1``
  messages are in flight;
- **the window-wait stamp**: ``sent_at`` is the virtual time the
  delivery *started*, before a full window made it wait.  Time spent
  waiting for socket-buffer space therefore counts toward the
  message's propagation latency, which the receiving end applies as
  ``sent_at + latency``.  Stamping at insertion instead changes the
  experiment outputs (fig18, fig19);
- in-order delivery;
- failure modes: :meth:`break_` (an abrupt close both sides observe as
  an error, like a broken pipe; what the window still holds can be
  taken) and :meth:`stall` (a *silent* failure that only
  traffic-inactivity detection can catch: the sender parks forever at
  its next delivery).

Bandwidth is **not** a property of the link object: emulated rates are
enforced by the sending node's :class:`~repro.core.bandwidth.NodeThrottle`
(per-link caps included), mirroring how the paper wraps the socket send
path with timers.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.core.ids import NodeId
from repro.core.message import Message
from repro.errors import LinkDownError

#: Default in-flight capacity (messages) of the simulated socket buffer.
DEFAULT_SOCKET_BUFFER = 4


class SimLink:
    """One direction of a persistent connection from ``src`` to ``dst``."""

    def __init__(
        self,
        src: NodeId,
        dst: NodeId,
        latency: float = 0.0,
        socket_buffer: int = DEFAULT_SOCKET_BUFFER,
    ) -> None:
        if latency < 0:
            raise ValueError(f"latency must be >= 0, got {latency}")
        if socket_buffer < 1:
            raise ValueError(f"socket_buffer must be >= 1, got {socket_buffer}")
        self.src = src
        self.dst = dst
        self.latency = latency
        self.socket_buffer = socket_buffer
        self.window: deque[tuple[Message, float]] = deque()
        self.on_push: Callable[[], None] | None = None
        self.on_take: Callable[[], None] | None = None
        #: False once broken; ``stalled`` once silently stopped
        self.alive = True
        self.stalled = False
        #: deliveries that found the in-flight window full and had to wait
        #: (TCP-style flow control pushing back on the sender)
        self.backpressure_events = 0

    @property
    def full(self) -> bool:
        return len(self.window) >= self.socket_buffer

    # --- data path -----------------------------------------------------------------

    def push(self, msg: Message, sent_at: float) -> None:
        """Put ``msg``, whose delivery started at ``sent_at``, on the wire.

        The caller checks :attr:`full` first; a broken link raises
        :class:`~repro.errors.LinkDownError`.
        """
        if not self.alive:
            raise LinkDownError(f"link {self.src}->{self.dst} is down")
        self.window.append((msg, sent_at))
        if self.on_push is not None:
            self.on_push()

    def take(self) -> tuple[Message, float]:
        """Remove the oldest in-flight ``(message, sent_at)``."""
        item = self.window.popleft()
        if self.on_take is not None:
            self.on_take()
        return item

    # --- failure injection -------------------------------------------------------------

    def break_(self) -> None:
        """Abruptly fail the link: both endpoints observe errors."""
        if not self.alive:
            return
        self.alive = False
        for end in (self.on_push, self.on_take):
            if end is not None:
                end()

    def stall(self) -> None:
        """Silently stop the link: no errors, just no traffic (for
        inactivity-detection experiments)."""
        self.stalled = True

    def __repr__(self) -> str:
        state = "broken" if not self.alive else ("stalled" if self.stalled else "up")
        return f"SimLink({self.src} -> {self.dst}, {state}, latency={self.latency})"
