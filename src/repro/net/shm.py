"""Shared-memory ring transport: the co-machine fast path for peer links.

Cross-worker traffic normally pays a syscall per frame on both sides of
every hop.  When two peers can prove they share a machine (identical
boot cookie, exchanged in the HELLO frame), the dialer offers a pair of
single-producer/single-consumer ring buffers in POSIX shared memory —
one per direction — and the data plane moves to plain ``memcpy``:
frames are appended to a pending buffer by ``send_message`` and flushed
into the ring in one batch per ``flush()``, and the inbound ring is
pushed to the link's end — the push surface the engine speaks for
loopback channels and TCP links alike.

The TCP connection that carried the HELLO is **kept open** but demoted
to a control channel with two jobs:

- **liveness** — a process death (even SIGKILL) closes its sockets, so
  the surviving side reads EOF and runs the very same ``_peer_failed``
  domino a broken socket triggers.  Rings alone can never signal death;
  the socket can, so the failure-detection ladder (and the watchdog's
  HEARTBEAT probes, which simply ride the ring like any other frame)
  is unchanged;
- **doorbells** — a consumer that finds its ring empty sets a
  ``parked`` flag in the ring header; the producer sends one wake-up
  byte when it publishes into a parked ring, and the socket listener
  sweeps the ring on every byte.  The same protocol runs in reverse for
  producers waiting on a full ring.  A short poll bounds the damage of
  any lost wake-up.

Ring layout (one shared-memory segment per direction)::

    [64-byte header][capacity bytes of ring data]
    header: tail u64 | head u64 | producer_closed u8 | consumer_closed u8
            | consumer_parked u8 | producer_parked u8 | pad | capacity u64

``tail``/``head`` are monotonically increasing byte positions (index =
position % capacity), so empty is ``head == tail`` and full is ``tail -
head == capacity`` with no reserved slot.  The byte stream carries
ordinary wire frames (24-byte header + payload, the same bytes TCP
would carry); partial frames across a sweep are reassembled on the
consumer side.

Lifecycle: the dialer creates both segments and unlinks them on close
(its ``resource_tracker`` covers SIGKILL); the acceptor attaches and
*unregisters* from its tracker (Python 3.11 registers on attach too,
which would otherwise unlink a live segment when the attacher exits).
"""

from __future__ import annotations

import asyncio
import os
import struct
from collections import deque
from multiprocessing import resource_tracker, shared_memory
from typing import Any

from repro.core.ids import NodeId
from repro.core.message import Message
from repro.core.msgtypes import MsgType
from repro.errors import CodecError
from repro.net.framing import (
    FrameAssembler,
    StreamLink,
    hello_message,
    read_message,
    write_message,
)
from repro.net.tasks import TaskSet

#: default ring capacity per direction (bytes) when shm is enabled
DEFAULT_RING_BYTES = 1 << 20

#: poll fallback while parked, in case a doorbell byte is lost (safety
#: net only — TCP does not lose bytes, so this almost never fires)
PARK_POLL = 0.05

_POS = struct.Struct("<Q")

_HDR_TAIL = 0
_HDR_HEAD = 8
_HDR_PRODUCER_CLOSED = 16
_HDR_CONSUMER_CLOSED = 17
_HDR_CONSUMER_PARKED = 18
_HDR_PRODUCER_PARKED = 19
_HDR_CAPACITY = 24
_HDR_SIZE = 64

_cookie_cache: str | None = None


def machine_cookie() -> str:
    """An identifier all processes on this machine (boot) share.

    Two peers exchanging equal cookies prove they can map the same
    shared-memory segments.  The kernel's boot id is ideal: stable for
    the life of the machine, different across machines and reboots.
    """
    global _cookie_cache
    if _cookie_cache is None:
        try:
            with open("/proc/sys/kernel/random/boot_id") as f:
                _cookie_cache = f.read().strip()
        except OSError:  # non-Linux: fall back to the hostname
            _cookie_cache = f"host:{os.uname().nodename}"
    return _cookie_cache


class RingBuffer:
    """One SPSC byte ring over a ``multiprocessing.shared_memory`` segment.

    Positions are monotonic u64 counters published *after* the bytes
    they cover are written, so the consumer never observes a position
    ahead of valid data.  Exactly one process writes ``tail`` (the
    producer) and one writes ``head`` (the consumer); the closed/parked
    flags are single bytes, each written by exactly one side.
    """

    __slots__ = ("name", "capacity", "_shm", "_mem", "_released")

    def __init__(self, shm: shared_memory.SharedMemory, capacity: int) -> None:
        self.name = shm.name
        self.capacity = capacity
        self._shm = shm
        self._mem = shm.buf
        self._released = False

    @classmethod
    def create(cls, capacity: int = DEFAULT_RING_BYTES) -> "RingBuffer":
        shm = shared_memory.SharedMemory(create=True, size=_HDR_SIZE + capacity)
        # Segments start zeroed; only the capacity needs recording.
        _POS.pack_into(shm.buf, _HDR_CAPACITY, capacity)
        return cls(shm, capacity)

    @classmethod
    def attach(cls, name: str) -> "RingBuffer":
        shm = shared_memory.SharedMemory(name=name)
        # Python 3.11 registers attached segments with the resource
        # tracker as if we created them; undo that, or this process's
        # exit would unlink a segment the creator still owns.
        try:
            resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]
        except Exception:  # pragma: no cover - tracker variance across versions
            pass
        (capacity,) = _POS.unpack_from(shm.buf, _HDR_CAPACITY)
        if capacity <= 0 or _HDR_SIZE + capacity > shm.size:
            shm.close()
            raise ValueError(f"shm segment {name!r} carries a bogus capacity {capacity}")
        return cls(shm, capacity)

    # --- header accessors ------------------------------------------------------

    def _pos(self, offset: int) -> int:
        return _POS.unpack_from(self._mem, offset)[0]

    def _set_pos(self, offset: int, value: int) -> None:
        _POS.pack_into(self._mem, offset, value)

    def _flag(self, offset: int) -> bool:
        return self._mem[offset] != 0

    def _set_flag(self, offset: int, value: bool) -> None:
        self._mem[offset] = 1 if value else 0

    @property
    def producer_closed(self) -> bool:
        return self._flag(_HDR_PRODUCER_CLOSED)

    @property
    def consumer_closed(self) -> bool:
        return self._flag(_HDR_CONSUMER_CLOSED)

    @property
    def consumer_parked(self) -> bool:
        return self._flag(_HDR_CONSUMER_PARKED)

    @property
    def producer_parked(self) -> bool:
        return self._flag(_HDR_PRODUCER_PARKED)

    def close_producer(self) -> None:
        self._set_flag(_HDR_PRODUCER_CLOSED, True)

    def close_consumer(self) -> None:
        self._set_flag(_HDR_CONSUMER_CLOSED, True)

    def park_consumer(self, parked: bool) -> None:
        self._set_flag(_HDR_CONSUMER_PARKED, parked)

    def park_producer(self, parked: bool) -> None:
        self._set_flag(_HDR_PRODUCER_PARKED, parked)

    # --- data path -------------------------------------------------------------

    @property
    def readable(self) -> int:
        return self._pos(_HDR_TAIL) - self._pos(_HDR_HEAD)

    @property
    def writable(self) -> int:
        return self.capacity - self.readable

    def write_some(self, data: memoryview, offset: int = 0) -> int:
        """Producer: copy as much of ``data[offset:]`` as fits; returns
        the byte count written (0 when the ring is full)."""
        tail = self._pos(_HDR_TAIL)
        free = self.capacity - (tail - self._pos(_HDR_HEAD))
        n = min(free, len(data) - offset)
        if n <= 0:
            return 0
        idx = tail % self.capacity
        first = min(n, self.capacity - idx)
        base = _HDR_SIZE
        self._mem[base + idx : base + idx + first] = data[offset : offset + first]
        if n > first:
            self._mem[base : base + n - first] = data[offset + first : offset + n]
        self._set_pos(_HDR_TAIL, tail + n)  # publish only after the copy
        return n

    def read_available(self) -> bytes:
        """Consumer: copy out and consume every readable byte."""
        head = self._pos(_HDR_HEAD)
        n = self._pos(_HDR_TAIL) - head
        if n <= 0:
            return b""
        idx = head % self.capacity
        first = min(n, self.capacity - idx)
        base = _HDR_SIZE
        if n <= first:
            out = bytes(self._mem[base + idx : base + idx + n])
        else:
            out = bytes(self._mem[base + idx : base + idx + first]) + bytes(
                self._mem[base : base + n - first]
            )
        self._set_pos(_HDR_HEAD, head + n)
        return out

    # --- lifecycle -------------------------------------------------------------

    def release(self, unlink: bool) -> None:
        """Drop this side's mapping; the creator also unlinks the name.

        Unlinking while the peer is still attached is safe (POSIX keeps
        the segment alive until the last mapping closes); a missing name
        means the other side or a resource tracker got there first.
        """
        if self._released:
            return
        self._released = True
        self._mem = memoryview(b"")
        try:
            self._shm.close()
        except (BufferError, OSError):  # pragma: no cover - platform variance
            pass
        if unlink:
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass


class ShmEndpoint:
    """Both halves of one shm peer link, on the push surface every data
    link speaks (see :class:`repro.net.virtual.LoopbackEndpoint`).

    ``send_message`` (dispatched to by
    :func:`~repro.net.framing.write_batch`) only appends to a pending
    buffer; ``flush`` copies the whole pending batch into the outbound
    ring — the writev-style one flush per pump run.  A full ring parks
    the producer: ``flush`` says so, and the doorbell of the consumer
    freeing space brings ``on_writable``.  The doorbell listener sweeps
    every readable byte out of the inbound ring through the frame sweep
    it shares with TCP links (:class:`~repro.net.framing.FrameAssembler`)
    and pushes the burst to the attached end in one ``on_frames``; socket
    EOF is ``on_lost``.  ``drain`` and ``recv_message`` are the same
    surface awaited, for a caller with no end attached.
    """

    transport_kind = "shm"

    def __init__(
        self,
        ring_out: RingBuffer,
        ring_in: RingBuffer,
        sock_reader: asyncio.StreamReader,
        sock_writer: asyncio.StreamWriter,
        owns_rings: bool,
        max_payload: int,
    ) -> None:
        self._out = ring_out
        self._in = ring_in
        self._sock_reader = sock_reader
        self._sock_writer = sock_writer
        self._owns_rings = owns_rings
        self._pending = bytearray()
        self._assembler = FrameAssembler(max_payload)
        self._frames: deque[Message] = deque()
        # _blocked: a flush waits for ring space
        self._closed = self._eof = self._paused = self._blocked = False
        self._end: Any = None
        self._doorbell = asyncio.Event()
        self._loop = asyncio.get_running_loop()
        self._poll = self._loop.call_later(PARK_POLL, self._on_poll)
        self._tasks = TaskSet(type(self).__name__)
        self._tasks.launch(self._listen(), "shm-listen")

    # --- socket control channel ------------------------------------------------

    async def _listen(self) -> None:
        """Own the socket reader: doorbell bytes wake us, EOF kills us."""
        try:
            while True:
                data = await self._sock_reader.read(4096)
                if not data:
                    break
                self._rung()
        except (ConnectionError, OSError):
            pass
        self._eof = True
        self._rung()

    def _on_poll(self) -> None:
        self._rung()  # a lost doorbell costs at most one poll period
        if not self._closed:
            self._poll = self._loop.call_later(PARK_POLL, self._on_poll)

    def _rung(self) -> None:
        """A doorbell: resume a parked flush, sweep the ring into the end."""
        self._doorbell.set()
        end = self._end
        if end is None or self._closed:
            return
        if self._blocked and (self._eof or self._out.writable):
            self._blocked = False
            self._out.park_producer(False)
            end.on_writable()
        ring = self._in
        while not self._paused and self._end is end:
            if ring.readable:
                ring.park_consumer(False)
                try:
                    frames = self.drain_frames()
                except CodecError as exc:  # a bad frame ends the link
                    return end.on_lost(exc)
                if frames:
                    end.on_frames(frames)
                continue
            # Idle: announce it, then re-check (the producer may have
            # published between our check and the flag store).
            ring.park_consumer(True)
            if not ring.readable:
                break
        if self._eof and self._end is end:
            # After what the producer published before it went away: the
            # same EOF a socket reader would see.
            end.on_lost(self._assembler.eof_error())

    def _ring_doorbell(self) -> None:
        try:
            self._sock_writer.write(b"!")
        except (ConnectionError, OSError, RuntimeError):
            pass

    async def _park(self) -> None:
        """Wait for a doorbell (or the poll fallback / EOF)."""
        self._doorbell.clear()
        try:
            await asyncio.wait_for(self._doorbell.wait(), timeout=PARK_POLL)
        except asyncio.TimeoutError:
            pass

    # --- writer surface --------------------------------------------------------

    def send_message(self, msg: Message) -> None:
        if self._closed or self._eof:
            raise ConnectionResetError("shm link closed")
        pending = self._pending
        frame = msg.cached_frame()
        if frame is not None:  # relay fast path: append the wire bytes as-is
            pending += frame
            return
        pending += msg.header_bytes()
        payload = msg.payload
        if payload:
            pending += payload

    def flush(self) -> bool:
        """Copy the whole pending batch into the outbound ring.

        False when the ring filled first: the producer is parked, and
        the doorbell of the consumer freeing space brings ``on_writable``.
        """
        if self._closed or self._eof or self._out.consumer_closed:
            raise ConnectionResetError("shm peer is gone")
        pending, out = self._pending, self._out
        while pending:
            with memoryview(pending) as data:
                n = out.write_some(data)
            if n:
                del pending[:n]
                if out.consumer_parked:
                    self._ring_doorbell()
                continue
            # Ring full: announce we are waiting, re-check (the consumer
            # may have freed space between our check and the flag store).
            out.park_producer(True)
            if out.writable == 0:
                self._blocked = True
                return False
            out.park_producer(False)
        return True

    async def drain(self) -> None:
        """``flush``, awaiting ring space."""
        while not self.flush():
            await self._park()

    # --- reader surface --------------------------------------------------------

    def attach(self, end: Any) -> None:
        self._end = end
        self._loop.call_soon(self._rung)  # what is in the ring already

    def pause_reading(self) -> None:
        self._paused = True
        self._in.park_consumer(False)  # the producer stops ringing, fills, parks

    def resume_reading(self) -> None:
        self._paused = False
        self._loop.call_soon(self._rung)

    def drain_frames(self) -> list[Message]:
        """Every frame sitting in the inbound ring, in one sweep."""
        chunk = self._in.read_available()
        if not chunk:
            return []
        if self._in.producer_parked:
            self._ring_doorbell()  # we just freed space it waits for
        return self._assembler.feed(chunk)

    async def recv_message(self) -> Message:
        """One frame, awaited."""
        frames = self._frames
        while not frames:
            if self._closed:
                raise self._assembler.eof_error()
            frames.extend(self.drain_frames())
            if frames:
                break
            if self._eof or self._in.producer_closed:
                # Drained everything the producer published before it
                # went away: surface the same EOF a socket reader would.
                raise self._assembler.eof_error()
            await self._park()
        return frames.popleft()

    # --- shared stream surface -------------------------------------------------

    def close(self) -> list[Message]:
        """Tear the link down: flag the rings, close the socket, unlink.

        Synchronous and idempotent; nothing more is pushed to the end.
        What the ring still holds is not read (the bound is one ring).
        """
        self._end = None
        if self._closed:
            return []
        self._closed = True
        self._poll.cancel()
        self._out.close_producer()
        self._in.close_consumer()
        self._tasks.teardown()
        try:
            self._sock_writer.close()  # FIN doubles as the last doorbell
        except (ConnectionError, OSError, RuntimeError):
            pass
        self._doorbell.set()
        self._out.release(unlink=self._owns_rings)
        self._in.release(unlink=self._owns_rings)
        return []


# --------------------------------------------------------------- negotiation


def shm_offer(ring_bytes: int) -> tuple[tuple[RingBuffer, RingBuffer] | None, dict | None]:
    """Create the dialer's ring pair and the HELLO capability field.

    Returns ``(None, None)`` when shared memory is unavailable (no
    ``/dev/shm``, exhausted quota) — the dial then proceeds as plain TCP.
    """
    try:
        c2s = RingBuffer.create(ring_bytes)
    except OSError:
        return None, None
    try:
        s2c = RingBuffer.create(ring_bytes)
    except OSError:
        c2s.release(unlink=True)
        return None, None
    offer = {
        "cookie": machine_cookie(),
        "c2s": c2s.name,
        "s2c": s2c.name,
        "size": ring_bytes,
    }
    return (c2s, s2c), offer


async def dial_shm(
    dest: NodeId, identity: NodeId, ring_bytes: int, timeout: float, max_payload: int
) -> "ShmEndpoint | StreamLink":
    """Open a connection to ``dest``, offering shared-memory rings.

    The HELLO carries the offer (boot cookie + segment names); the
    acceptor answers with one SHM_ACK frame.  On acceptance both stream
    ends are replaced by a single :class:`ShmEndpoint`; on denial (or a
    missing/invalid ack) the rings are unlinked and the already-open
    TCP connection carries the data link like any other.
    """
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(dest.ip, dest.port), timeout
    )
    rings, offer = shm_offer(ring_bytes)
    accepted = False
    try:
        write_message(writer, hello_message(identity, shm=offer))
        await writer.drain()
        if rings is not None:
            ack = await asyncio.wait_for(read_message(reader), timeout)
            accepted = ack.type == MsgType.SHM_ACK and bool(ack.fields().get("ok"))
    except (asyncio.CancelledError, Exception) as exc:
        writer.close()
        if isinstance(exc, (asyncio.TimeoutError, asyncio.CancelledError)):
            raise
        raise ConnectionError(f"shm negotiation with {dest} failed: {exc}") from exc
    finally:
        if rings is not None and not accepted:
            rings[0].release(unlink=True)
            rings[1].release(unlink=True)
    if not accepted:
        return StreamLink(reader, writer)
    return ShmEndpoint(
        ring_out=rings[0], ring_in=rings[1],
        sock_reader=reader, sock_writer=writer,
        owns_rings=True, max_payload=max_payload,
    )


async def accept_shm(
    offer: object, node_id: NodeId, reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter, enabled: bool, max_payload: int,
) -> "ShmEndpoint | None":
    """Answer a dialer's ring offer; returns the endpoint on acceptance.

    Denies (SHM_ACK ok=false, connection stays plain TCP) when shm is
    disabled locally, the boot cookies differ (different machine — the
    segment names would be meaningless here), or the segments cannot be
    attached.
    """
    rings: tuple[RingBuffer, RingBuffer] | None = None
    if enabled and isinstance(offer, dict) and offer.get("cookie") == machine_cookie():
        try:
            c2s = RingBuffer.attach(str(offer["c2s"]))
            try:
                s2c = RingBuffer.attach(str(offer["s2c"]))
            except (KeyError, OSError, ValueError):
                c2s.release(unlink=False)
                raise
            rings = (c2s, s2c)
        except (KeyError, OSError, ValueError):
            rings = None
    try:
        write_message(
            writer,
            Message.with_fields(MsgType.SHM_ACK, node_id, 0, ok=rings is not None),
        )
        await writer.drain()
    except (ConnectionError, OSError):
        if rings is not None:
            rings[0].release(unlink=False)
            rings[1].release(unlink=False)
        raise
    if rings is None:
        return None
    # The acceptor produces into s2c and consumes c2s.
    return ShmEndpoint(
        ring_out=rings[1], ring_in=rings[0],
        sock_reader=reader, sock_writer=writer,
        owns_rings=False, max_payload=max_payload,
    )
