"""The observer link, written once for each of its two ends.

Every overlay node keeps one persistent connection to the observer, or
to an :class:`~repro.net.proxy.ObserverProxy` that funnels many node
connections into one observer link of its own (Section 2.2).  Each end
of that link is one class here:

- :class:`ObserverUplink` — the dialing end, owned by every
  :class:`~repro.net.engine.AsyncioEngine` and every proxy: the first
  dial, one reader handing downward frames to a callback, one supervisor
  flushing a bounded drop-oldest outbox in coalesced batches, redial
  under backoff, and the greeting that re-introduces the sender after
  every (re)connect;
- :class:`ObserverHub` — the listening end, subclassed by
  :class:`~repro.net.observer_server.ObserverServer` and the proxy:
  bind, HELLO accept, the writer table, the read loop, member routes
  learned from the ``sender`` of frames a proxy forwarded unchanged and
  from ``W_AGG`` members, route-down (straight to a direct child, or in
  a ``PROXY`` envelope to the child that owns the route), purge on
  disconnect, and stop.  A subclass adds only its frame dispatch.

On both ends a frame that does not decode is dropped, counted in
``bad_frames`` and reported as a ``control-fault`` trace; the connection
and its reader keep running.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Coroutine

from repro.core.ids import NodeId
from repro.core.message import Message
from repro.core.msgtypes import MsgType
from repro.errors import CodecError
from repro.net.framing import (
    expect_hello,
    open_identified,
    read_message,
    wrap_proxy_down,
    write_batch,
    write_message,
)
from repro.net.resilience import BackoffPolicy, ObserverOutbox
from repro.net.tasks import TaskSet
from repro.observer.observer import decode_rollup

#: what a dropped stream raises on read
_LINK_LOST = (asyncio.IncompleteReadError, ConnectionError, OSError, CodecError)


class ObserverUplink:
    """One supervised link up to the observer (or a proxy in front of it)."""

    def __init__(
        self,
        dest: NodeId,
        *,
        launch: Callable[[Coroutine, str], Any],
        on_frame: Callable[[Message], None],
        on_connected: Callable[[], list[Message]],
        backoff: BackoffPolicy,
        capacity: int,
        retry_budget: int | None = None,
        connect_timeout: float = 10.0,
        on_fault: Callable[..., None] | None = None,
    ) -> None:
        self.dest = dest
        #: the HELLO identity; set by :meth:`start`, once the owner is bound
        self.identity: NodeId | None = None
        self.outbox = ObserverOutbox(capacity)
        #: consecutive failed redials before giving up (``None``: never)
        self.retry_budget = retry_budget
        self.connect_timeout = connect_timeout
        self._launch = launch
        self._on_frame = on_frame
        self._on_connected = on_connected
        self._on_fault = on_fault
        self._backoff = backoff
        self._writer: asyncio.StreamWriter | None = None
        self._wake = asyncio.Event()
        #: one writer at a time: the supervisor's flush or a send_now
        self._lock = asyncio.Lock()
        self._running = False
        #: frames written and drained / outbox evictions / successful
        #: redials / downward frames ``on_frame`` refused
        self.sent = 0
        self.drops = 0
        self.reconnects = 0
        self.bad_frames = 0

    @property
    def connected(self) -> bool:
        return self._writer is not None and not self._writer.is_closing()

    async def start(self, identity: NodeId) -> None:
        """Dial once (a failure propagates to the caller), then supervise."""
        self.identity = identity
        self._running = True
        await self._connect()
        self._launch(self._supervise(), f"{identity}/uplink")

    def close(self) -> None:
        """Stop redialing and close the link; the launcher owns the tasks."""
        self._running = False
        self._drop(self._writer)

    def push(self, msg: Message) -> None:
        """Queue ``msg`` for the link; never blocks, never raises.

        Overflow evicts the oldest entry and counts the drop — fresher
        status beats stale status, and nothing stalls on observability.
        """
        if self.outbox.push(msg) is not None:
            self.drops += 1
        self._wake.set()

    async def send_now(self, msg: Message) -> bool:
        """Write ``msg`` behind everything queued and drain.

        True once it left on a live link; a frame that did not leave is
        not kept (the caller rebuilds it).
        """
        return self._writer is not None and await self._flush(self._writer, msg)

    # ------------------------------------------------------------------ internals

    async def _connect(self, redial: bool = False) -> None:
        reader, writer = await open_identified(
            self.dest, self.identity, timeout=self.connect_timeout
        )
        if not self._running:  # closed while the dial was in flight
            writer.close()
            return
        if redial:
            self.reconnects += 1
        self._writer = writer
        self._launch(self._read(reader, writer), f"{self.identity}/uplink-read")
        # The greeting is the first thing on the wire, ahead of the outbox.
        greeting = self._on_connected()
        write_batch(writer, greeting)
        self.sent += len(greeting)

    def _drop(self, writer: asyncio.StreamWriter | None) -> None:
        """Forget a failed link and wake the supervisor to redial."""
        if writer is not None and writer is self._writer:
            writer.close()
            self._writer = None
            self._wake.set()

    async def _read(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        """Hand each downward frame to ``on_frame`` until the link drops."""
        while True:
            try:
                msg = await read_message(reader)
            except _LINK_LOST:
                self._drop(writer)
                return
            try:
                self._on_frame(msg)
            except Exception as exc:
                self.bad_frames += 1
                if self._on_fault is not None:
                    self._on_fault(self.identity, stage="uplink", type=msg.type, error=repr(exc))

    async def _supervise(self) -> None:
        """Flush the outbox while the link lives; redial when it drops.

        Redials sleep under the backoff policy first, reset the attempt
        count on success, and stop after ``retry_budget`` consecutive
        failures; the outbox keeps absorbing (and counting) meanwhile.
        """
        attempt = 0
        while self._running:
            writer = self._writer
            if writer is None:
                if self.retry_budget is not None and attempt >= self.retry_budget:
                    return
                await asyncio.sleep(self._backoff.delay(attempt))
                attempt += 1
                if not self._running:
                    return
                try:
                    await self._connect(redial=True)
                except (OSError, asyncio.TimeoutError):
                    continue
                attempt = 0
            elif self.outbox:
                await self._flush(writer)
            else:
                self._wake.clear()
                await self._wake.wait()

    async def _flush(self, writer: asyncio.StreamWriter, *extra: Message) -> bool:
        """Write everything queued (then ``extra``) and drain once.

        Entries leave the outbox only after the drain succeeded, so what
        a dying link swallowed goes out again on the next one
        (at-least-once, order kept); ``pop_head``'s identity check skips
        an entry the bounded outbox evicted meanwhile.
        """
        async with self._lock:
            if writer is not self._writer or writer.is_closing():
                self._drop(writer)
                return False
            batch = self.outbox.snapshot()
            try:
                write_batch(writer, [*batch, *extra])
                await writer.drain()
            except (ConnectionError, OSError):
                self._drop(writer)
                return False
            for msg in batch:
                self.outbox.pop_head(msg)
            self.sent += len(batch) + len(extra)
            return True


class ObserverHub:
    """The listening end of observer links: the root observer, every proxy."""

    def __init__(self, addr: NodeId) -> None:
        self.addr = addr
        #: direct children by HELLO identity
        self._writers: dict[NodeId, asyncio.StreamWriter] = {}
        #: member -> the direct child whose connection reaches it (a
        #: member behind a proxy: Section 2.2's firewall relay)
        self._routes: dict[NodeId, NodeId] = {}
        self._server: asyncio.AbstractServer | None = None
        self._tasks = TaskSet(type(self).__name__)
        self._running = False
        #: total frames / wire bytes received from children — at the
        #: root, the quantity the aggregation tree exists to reduce (what
        #: the fig_observer_scaling experiment measures)
        self.frames_in = 0
        self.bytes_in = 0
        self.bad_frames = 0

    # ------------------------------------------------------------ subclass hooks

    def _dispatch(self, child: NodeId, msg: Message) -> None:
        """Act on one upward frame from ``child`` (raise to drop it)."""
        raise NotImplementedError

    def _child_gone(self, child: NodeId, gone: list[NodeId]) -> None:
        """``child`` disconnected; ``gone`` is it and every member behind it."""

    def trace_fault(self, node: NodeId, **detail: Any) -> None:
        """Record a dropped frame wherever this endpoint keeps a trace."""

    # ----------------------------------------------------------------- lifecycle

    async def _bind(self) -> None:
        """Listen; with port 0 the final address exists only once bound."""
        self._running = True
        self._server = await asyncio.start_server(
            self._accept, host=self.addr.ip, port=self.addr.port
        )
        if self.addr.port == 0:
            self.addr = NodeId(self.addr.ip, self._server.sockets[0].getsockname()[1])

    async def stop(self) -> None:
        self._running = False
        self._tasks.teardown(keep=asyncio.current_task())
        for writer in self._writers.values():
            writer.close()
        self._writers.clear()
        self._routes.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # --------------------------------------------------------------- connections

    async def _accept(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        # A connection handler is nobody's awaitable: a cancellation
        # escaping it (loop shutdown) would only be logged by asyncio's
        # stream callback, so it ends the connection like EOF does.
        try:
            child = await expect_hello(reader)
        except (asyncio.CancelledError, Exception):
            writer.close()
            return
        self._writers[child] = writer
        try:
            while self._running:
                try:
                    msg = await read_message(reader)
                except (*_LINK_LOST, asyncio.CancelledError):
                    break
                self._take(child, msg)
        finally:
            if self._writers.get(child) is writer:
                del self._writers[child]
                gone = [child, *(m for m, owner in self._routes.items() if owner == child)]
                for member in gone[1:]:
                    del self._routes[member]
                self._child_gone(child, gone)
            writer.close()

    def _take(self, child: NodeId, msg: Message) -> None:
        """Count, learn from and dispatch one upward frame.

        A frame that does not decode is dropped, counted and traced; the
        connection it came on stays up.
        """
        self.frames_in += 1
        self.bytes_in += msg.size
        try:
            self._learn_route(child, msg)
            self._dispatch(child, msg)
        except Exception as exc:
            self.bad_frames += 1
            self.trace_fault(child, stage="frame", type=msg.type, error=repr(exc))

    def _learn_route(self, child: NodeId, msg: Message) -> None:
        """Members reachable through ``child``: a ``W_AGG`` roll-up's
        member list, or the sender of a frame ``child`` forwarded."""
        if msg.type == MsgType.W_AGG:
            self._routes.update(dict.fromkeys(decode_rollup(msg).members, child))
        elif msg.sender != child:
            self._routes[msg.sender] = child

    def _route_down(self, dest: NodeId, msg: Message) -> bool:
        """Write ``msg`` toward ``dest``; False when no connection carries it.

        A direct child gets the frame itself; a member behind a proxy
        gets it in a ``PROXY`` envelope on the connection of the child
        that owns its route, which unwraps it or passes it one level on.
        """
        writer = self._writers.get(dest)
        if writer is None and dest in self._routes:
            writer = self._writers.get(self._routes[dest])
            msg = wrap_proxy_down(self.addr, dest, msg)
        if writer is None or writer.is_closing():
            return False
        write_message(writer, msg)
        return True
