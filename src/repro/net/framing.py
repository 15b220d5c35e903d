"""Reading and writing iOverlay messages on asyncio TCP streams.

No extra framing layer is needed: the fixed 24-byte header already
declares the payload size (Fig. 3 of the paper), so frames are sliced
straight out of the byte stream.  Data links move whole bursts — one
parse sweep per received chunk, pushed to the link's end
(:class:`StreamLink`), one transport write per sender flush
(:func:`write_batch`); links that are one frame at a time by protocol
use :func:`read_message` and :func:`write_message`.  The first frame on every fresh connection must be
a ``HELLO`` carrying the sender's publicized identity, because the
ephemeral source port of an outgoing TCP connection does not identify
the overlay node behind it.
"""

from __future__ import annotations

import asyncio
import json
import struct
import threading
from typing import Any

from repro.core.ids import NodeId
from repro.core.message import HEADER_SIZE, Message
from repro.core.msgtypes import MsgType
from repro.errors import CodecError

_HEADER_STRUCT = struct.Struct("!IIIIiI")
_META_LEN = struct.Struct("!I")

#: refuse frames whose declared payload exceeds this (protects the reader)
MAX_FRAME_PAYLOAD = 64 * 1024 * 1024

#: the payload-size field: the last four bytes of the header
_PAYLOAD_LEN = struct.Struct("!I")
_PAYLOAD_LEN_AT = HEADER_SIZE - _PAYLOAD_LEN.size


async def read_message(reader: asyncio.StreamReader) -> Message:
    """Read one message; raises ``IncompleteReadError`` on EOF mid-frame
    and :class:`~repro.errors.CodecError` on malformed frames.

    For the links that are one frame at a time by protocol (HELLO and
    shm negotiation, observer, proxy, cluster control); data links are
    pushed whole bursts through :class:`StreamLink`.
    """
    header = await reader.readexactly(HEADER_SIZE)
    payload_size = _HEADER_STRUCT.unpack(header)[5]
    if payload_size > MAX_FRAME_PAYLOAD:
        raise CodecError(f"frame declares {payload_size} payload bytes; refusing")
    payload = await reader.readexactly(payload_size) if payload_size else b""
    # Decoding through ``unpack`` keeps the received frame cached on the
    # message, so relaying it re-sends the identical bytes unpacked here.
    return Message.unpack(header + payload, max_payload=MAX_FRAME_PAYLOAD)


def write_message(writer: asyncio.StreamWriter, msg: Message) -> None:
    """Queue one message on the stream (caller drains with ``await writer.drain()``).

    Header and payload are written as separate buffers: the payload
    bytes object reaches the transport by reference instead of being
    copied into a concatenated frame first (zero-copy on the data path).
    """
    frame = msg.cached_frame()
    if frame is not None:  # relay fast path: one pre-built buffer
        writer.write(frame)
        return
    writer.write(msg.header_bytes())
    payload = msg.payload
    if payload:
        writer.write(payload)


# --- burst reads --------------------------------------------------------------
#
# A data link hands its end everything one chunk of bytes completed:
# one sweep over the bytes, one list of messages.


def parse_frames(
    buffer: bytes | bytearray | memoryview, max_payload: int = MAX_FRAME_PAYLOAD
) -> tuple[list[Message], int]:
    """Slice every complete frame out of ``buffer``.

    Returns the messages and the number of bytes they covered; the rest
    is a partial frame the caller carries over.  Each message is decoded
    by ``Message.unpack``, so it keeps its wire frame cached for relays
    and its payload unmaterialized.  A header declaring more than
    ``max_payload`` bytes is refused before any of its body is awaited:
    :class:`~repro.errors.CodecError` when it leads the buffer, and a
    stop in front of it otherwise, so the frames ahead of it come out
    the same however the stream was cut into buffers.
    """
    frames: list[Message] = []
    pos = 0
    with memoryview(buffer) as view:
        end = view.nbytes
        while end - pos >= HEADER_SIZE:
            (payload_size,) = _PAYLOAD_LEN.unpack_from(view, pos + _PAYLOAD_LEN_AT)
            if payload_size > max_payload:
                if pos:
                    break
                raise CodecError(f"frame declares {payload_size} payload bytes; refusing")
            total = HEADER_SIZE + payload_size
            if end - pos < total:
                break
            # A buffer that is exactly one frame is decoded as the object
            # it is: ``unpack`` keeps a ``bytes`` frame without copying.
            frame = buffer if total == end and not pos else view[pos : pos + total]
            frames.append(Message.unpack(frame, max_payload))
            pos += total
    return frames, pos


class FrameAssembler:
    """Byte chunks cut anywhere in, whole frames out (no IO of its own)."""

    __slots__ = ("_max_payload", "_tail")

    def __init__(self, max_payload: int = MAX_FRAME_PAYLOAD) -> None:
        self._max_payload = max_payload
        self._tail = bytearray()  # the partial frame awaiting its next chunk

    def feed(self, chunk: bytes) -> list[Message]:
        """Every frame ``chunk`` completes, oldest first."""
        tail = self._tail
        if not tail:
            frames, used = parse_frames(chunk, self._max_payload)
            if used < len(chunk):
                with memoryview(chunk) as view:
                    tail += view[used:]
            return frames
        tail += chunk
        frames, used = parse_frames(tail, self._max_payload)
        if used:
            del tail[:used]
        return frames

    def eof_error(self) -> asyncio.IncompleteReadError:
        """What ``readexactly`` would raise had the stream ended here.

        ``partial`` is what arrived of the header or, once the header is
        whole, of the payload it declares.
        """
        tail = bytes(self._tail)
        if len(tail) < HEADER_SIZE:
            return asyncio.IncompleteReadError(tail, HEADER_SIZE)
        (payload_size,) = _PAYLOAD_LEN.unpack_from(tail, _PAYLOAD_LEN_AT)
        return asyncio.IncompleteReadError(tail[HEADER_SIZE:], payload_size)


#: bytes one read may take (asyncio's own ``recv`` size)
READ_BYTES = 256 * 1024
_reads = threading.local()


def _read_buffer() -> memoryview:
    """This thread's receive buffer, shared by its TCP data links.

    A read lands here and is parsed at once: every frame is copied out
    (``Message.unpack`` keeps only ``bytes``) and so is a partial tail,
    so nothing refers to the buffer once the read is handled.  Reading
    into it spares the 256 KiB ``bytes`` a plain ``recv`` allocates and
    shrinks per read (an mmap round trip, most of a paced hop's read).
    """
    view = getattr(_reads, "view", None)
    if view is None:
        view = _reads.view = memoryview(bytearray(READ_BYTES))
    return view


class StreamLink(asyncio.BufferedProtocol):
    """A data link over a TCP connection whose handshake is done.

    Takes the transport over from the handshake's stream pair
    (``set_protocol``), carrying over whatever the ``StreamReader`` had
    already buffered behind the HELLO, so no byte is lost or reordered.
    From then on every read (into the thread's :func:`_read_buffer`) is
    one ``data_received``: one ``FrameAssembler.feed`` and one
    ``on_frames`` push to the attached end; the end of the connection,
    clean or mid-frame, is one ``on_lost``.  The write side is the
    transport itself: ``pause_writing`` / ``resume_writing`` are what
    ``flush`` reports and what wakes the end's pump.
    """

    transport_kind = "tcp"

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        # The StreamWriter stays referenced: its __del__ closes the transport.
        self._stream, transport = writer, writer.transport
        self.transport = transport
        self._read = _read_buffer()
        # Writes go straight to the transport: a write on a lost
        # connection is dropped there, and the ``flush`` after it raises.
        self.write, self.writelines = transport.write, transport.writelines
        self.pause_reading, self.resume_reading = transport.pause_reading, transport.resume_reading
        self._assembler = FrameAssembler()
        self._held: list[Message] = []  # frames that arrived before attach()
        self._end: Any = None
        self._lost, self._write_paused = None, False  # the end of the connection, if seen
        # the handshake's leftovers: buffered bytes, and the connection's end
        buffered, eof = bytes(reader._buffer), reader._eof or reader.exception() is not None
        transport.set_protocol(self)
        transport.resume_reading()  # the StreamReader may have paused it
        if buffered:
            self.data_received(buffered)
        if eof:
            self.connection_lost(reader.exception())

    # --- the transport's callbacks (EOF closes it: connection_lost follows) -----

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._read

    def buffer_updated(self, nbytes: int) -> None:
        self.data_received(self._read[:nbytes])

    def data_received(self, data: bytes | memoryview) -> None:
        try:
            frames = self._assembler.feed(data)
        except CodecError as exc:
            self.transport.abort()
            return self.connection_lost(exc)
        if frames and self._end is None:
            self._held += frames
        elif frames:
            self._end.on_frames(frames)

    def connection_lost(self, exc: BaseException | None) -> None:
        if self._lost is not None:
            return
        self._lost = exc or self._assembler.eof_error()
        if self._end is not None:
            self._end.on_lost(self._lost)

    def pause_writing(self) -> None:
        self._write_paused = True

    def resume_writing(self) -> None:
        self._write_paused = False
        if self._end is not None:
            self._end.on_writable()

    # --- the endpoint surface ---------------------------------------------------

    def attach(self, end: Any) -> None:
        """Start pushing to ``end``: what arrived so far first."""
        self._end = end
        held, self._held = self._held, []
        if held:
            end.on_frames(held)
        if self._lost is not None:
            end.on_lost(self._lost)

    def flush(self) -> bool:
        """True while the transport takes more; else ``on_writable`` follows."""
        if self._lost is not None or self.transport.is_closing():
            raise ConnectionResetError("connection lost")
        return not self._write_paused

    def close(self) -> list[Message]:
        """Detach and close; returns the frames never handed over."""
        self._end = None
        self._stream.close()
        held, self._held = self._held, []
        return held


# --- vectorized batch writes --------------------------------------------------
#
# A link's pump drains its whole queue per run, so header packing
# is naturally batchable: splice every message's six header fields into
# ONE precompiled ``struct.Struct`` call covering the burst, then slice
# the 24-byte views back out.  Python-level call overhead is paid once
# per burst instead of once per frame.

#: batch size -> precompiled N-header struct (bounded: sender bursts
#: cluster around the switch's rounds-per-wakeup, so a few dozen
#: distinct sizes cover steady state; odd sizes fall back per-message)
_BATCH_STRUCTS: dict[int, struct.Struct] = {}
_BATCH_STRUCTS_LIMIT = 512
_HEADER_FMT = "IIIIiI"


def pack_headers(msgs: list[Message]) -> memoryview:
    """Pack every message's 24-byte header with one ``struct`` call.

    Returns a ``len(msgs) * 24``-byte buffer; caller slices per-frame
    views out of it (no per-header bytes objects are materialized).
    """
    n = len(msgs)
    packer = _BATCH_STRUCTS.get(n)
    if packer is None:
        packer = struct.Struct("!" + _HEADER_FMT * n)
        if len(_BATCH_STRUCTS) < _BATCH_STRUCTS_LIMIT:
            _BATCH_STRUCTS[n] = packer
    values: list[int] = []
    for msg in msgs:
        values += msg.header_values()
    return memoryview(packer.pack(*values))


def write_batch(writer: asyncio.StreamWriter, msgs: list[Message]) -> None:
    """Queue a whole sender-drain burst (the caller then ``flush``-es).

    Messages with a cached wire frame go out as that single buffer (the
    relay fast path); everything else has its header batch-packed in one
    vectorized call and its payload handed over by reference.  The burst
    reaches the transport in ONE ``writelines`` call, so a flush of N
    frames is one send, not N.
    """
    send = getattr(writer, "send_message", None)
    if send is not None:  # loopback/shm endpoint: per-object handoff
        for msg in msgs:
            send(msg)
        return
    if len(msgs) < 2:
        for msg in msgs:
            write_message(writer, msg)
        return
    fresh = [msg for msg in msgs if msg.cached_frame() is None]
    headers = pack_headers(fresh) if fresh else None
    parts: list[bytes | memoryview] = []
    index = 0
    for msg in msgs:
        frame = msg.cached_frame()
        if frame is not None:
            parts.append(frame)
            continue
        offset = index * HEADER_SIZE
        parts.append(headers[offset : offset + HEADER_SIZE])
        index += 1
        payload = msg.payload
        if payload:
            parts.append(payload)
    writer.writelines(parts)


def hello_message(node: NodeId, **extra: object) -> Message:
    """The identification frame opening every persistent connection.

    ``extra`` carries capability fields (``None`` values are dropped) —
    today only ``shm``, a shared-memory ring offer for co-machine peers
    (see :mod:`repro.net.shm`).
    """
    fields = {key: value for key, value in extra.items() if value is not None}
    return Message.with_fields(MsgType.HELLO, node, 0, node=str(node), **fields)


# --- proxy envelopes ----------------------------------------------------------
#
# Upward, a proxy forwards a node's frame unchanged: its header's
# ``sender`` already names the origin.  Only a *downward* frame for a
# member behind a proxy needs an address, so it travels inside a PROXY
# envelope: a 4-byte length, the JSON ``{"dest": ...}``, then the inner
# frame's raw bytes.


def wrap_proxy_down(sender: NodeId, dest: NodeId, frame: Message) -> Message:
    """Wrap an observer's downward frame for a proxied node."""
    meta = json.dumps({"dest": str(dest)}, separators=(",", ":")).encode()
    payload = b"".join((_META_LEN.pack(len(meta)), meta, frame.pack()))
    return Message(MsgType.PROXY, sender, 0, payload)


def unwrap_proxy(envelope: Message) -> tuple[NodeId, Message]:
    """The destination and the decoded inner frame of a PROXY envelope."""
    payload = envelope.payload
    (meta_len,) = _META_LEN.unpack_from(payload)
    dest = json.loads(payload[4 : 4 + meta_len])["dest"]
    return NodeId.parse(dest), Message.unpack(payload[4 + meta_len :])


async def open_identified(
    dest: NodeId, identity: NodeId, timeout: float = 10.0
) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """Open a TCP connection to ``dest`` and introduce ourselves."""
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(dest.ip, dest.port), timeout
    )
    write_message(writer, hello_message(identity))
    await writer.drain()
    return reader, writer


async def expect_hello(reader: asyncio.StreamReader, timeout: float = 10.0) -> NodeId:
    """Read the HELLO frame that must open an inbound connection."""
    node, _ = await expect_hello_fields(reader, timeout)
    return node


async def expect_hello_fields(
    reader: asyncio.StreamReader, timeout: float = 10.0
) -> tuple[NodeId, dict]:
    """Read an inbound HELLO; returns the identity plus capability fields
    (the engine inspects ``fields["shm"]`` for a ring-channel offer)."""
    msg = await asyncio.wait_for(read_message(reader), timeout)
    if msg.type != MsgType.HELLO:
        raise CodecError(f"expected HELLO, got type {msg.type}")
    fields = msg.fields()
    return NodeId.parse(fields["node"]), fields
