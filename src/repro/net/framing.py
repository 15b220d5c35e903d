"""Reading and writing iOverlay messages on asyncio TCP streams.

No extra framing layer is needed: the fixed 24-byte header already
declares the payload size (Fig. 3 of the paper), so frames are sliced
straight out of the byte stream.  Data links move whole bursts — one
read and one parse sweep per receiver wakeup (:class:`FramedReader`),
one transport write per sender flush (:func:`write_batch`); links that
are one frame at a time by protocol use :func:`read_message` and
:func:`write_message`.  The first frame on every fresh connection must be
a ``HELLO`` carrying the sender's publicized identity, because the
ephemeral source port of an outgoing TCP connection does not identify
the overlay node behind it.
"""

from __future__ import annotations

import asyncio
import json
import struct

from repro.core.ids import NodeId
from repro.core.message import HEADER_SIZE, Message
from repro.core.msgtypes import MsgType
from repro.errors import CodecError

_HEADER_STRUCT = struct.Struct("!IIIIiI")
_META_LEN = struct.Struct("!I")

#: refuse frames whose declared payload exceeds this (protects the reader)
MAX_FRAME_PAYLOAD = 64 * 1024 * 1024

#: bytes a data link asks of its stream per wakeup.  Equal to the
#: ``StreamReader`` default limit, so a receiver never holds more in
#: hand than the stream had already buffered for it.
CHUNK = 64 * 1024

#: the payload-size field: the last four bytes of the header
_PAYLOAD_LEN = struct.Struct("!I")
_PAYLOAD_LEN_AT = HEADER_SIZE - _PAYLOAD_LEN.size


async def read_message(reader: asyncio.StreamReader) -> Message:
    """Read one message; raises ``IncompleteReadError`` on EOF mid-frame
    and :class:`~repro.errors.CodecError` on malformed frames.

    For the links that are one frame at a time by protocol (HELLO and
    shm negotiation, observer, proxy, cluster control); data links read
    whole bursts through :class:`FramedReader`.  Endpoints
    (:mod:`repro.net.virtual`, :mod:`repro.net.shm`) hand over their own
    next message.
    """
    recv = getattr(reader, "recv_message", None)
    if recv is not None:
        return await recv()
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
    send = getattr(writer, "send_message", None)
    if send is not None:  # loopback endpoint: pass the object, zero-copy
        send(msg)
        return
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
# A data link hands its receiver everything that arrived since the last
# wakeup: one read, one sweep over the bytes, one list of messages.


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


class FramedReader:
    """The read half of a data link over a ``StreamReader``.

    Wraps the stream once the HELLO has been read.  ``recv_message``
    awaits one ``read(CHUNK)`` per wakeup and ``drain_frames`` hands over
    the rest of what that read carried — the endpoint surface the
    loopback and shm links have.  EOF, clean or mid-frame, raises
    ``IncompleteReadError`` with the partial bytes.
    """

    __slots__ = ("_reader", "_assembler", "_frames")

    def __init__(self, reader: asyncio.StreamReader) -> None:
        self._reader = reader
        self._assembler = FrameAssembler()
        self._frames: list[Message] = []

    async def recv_message(self) -> Message:
        while not self._frames:
            chunk = await self._reader.read(CHUNK)
            if not chunk:
                raise self._assembler.eof_error()
            self._frames = self._assembler.feed(chunk)
        return self._frames.pop(0)

    def drain_frames(self) -> list[Message]:
        """The frames already read and not yet handed over."""
        frames, self._frames = self._frames, []
        return frames


# --- vectorized batch writes --------------------------------------------------
#
# The sender loop drains its whole queue per wakeup, so header packing
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
    """Queue a whole sender-drain burst (caller awaits ``writer.drain()``).

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
