"""The application-layer message and its 24-byte wire header.

The paper (Fig. 3) defines a fixed 24-byte header:

====================  =======  =============================================
field                 bytes    notes
====================  =======  =============================================
message type          4        :mod:`repro.core.msgtypes`
original sender IP    4        IPv4, network byte order
original sender port  4
application id        4        which deployed application this belongs to
sequence number       4        the only *modifiable* field
payload size          4        number of payload bytes that follow
====================  =======  =============================================

Message content is otherwise immutable and initialized at construction
time, exactly as in the paper.  The engine passes messages by reference
("zero copying"); Python object references give us that for free, and the
immutability contract keeps reference sharing safe.  The one mutable
field, the sequence number, is isolated so concurrent readers of shared
messages are never surprised.
"""

from __future__ import annotations

import json
import struct
from typing import Any

from repro.core.ids import AppId, NodeId, int_to_ip, ip_to_int
from repro.core.msgtypes import type_name
from repro.errors import CodecError

#: Size of the fixed wire header, in bytes (Fig. 3 of the paper).
HEADER_SIZE = 24

_HEADER_STRUCT = struct.Struct("!IIIIiI")

#: Default maximum payload length accepted by :func:`unpack` (messages have
#: "a maximum (but not necessarily fixed) length" — Section 2.2).
MAX_PAYLOAD = 16 * 1024 * 1024

# Interned sender ids, keyed by the header's (ip_int, port) pair.  An
# engine receives frames from a handful of distinct senders, so the
# NodeId (with its dataclass construction and validation) is built once
# per peer instead of once per frame.  Bounded like the ids caches.
_NODE_CACHE: dict[tuple[int, int], NodeId] = {}
_NODE_CACHE_LIMIT = 16384


class Message:
    """An application-layer message: 24-byte header plus payload.

    Instances are cheap to share by reference across engine components.
    All header fields except ``seq`` are read-only after construction.
    """

    __slots__ = ("_type", "_sender", "_app", "seq", "_payload", "size", "_trace_id",
                 "_hop_t0", "_raw", "_raw_seq")

    def __init__(
        self,
        type_: int,
        sender: NodeId,
        app: AppId,
        payload: bytes = b"",
        seq: int = 0,
    ) -> None:
        if not 0 <= type_ <= 0xFFFFFFFF:
            raise CodecError(f"message type out of range: {type_}")
        if not isinstance(payload, (bytes, bytearray, memoryview)):
            raise CodecError(f"payload must be bytes-like, got {type(payload).__name__}")
        self._type = type_
        self._sender = sender
        self._app = app
        self.seq = seq
        self._payload = bytes(payload)
        #: total wire size, header plus payload, in bytes (read-only: set
        #: once here, by :meth:`unpack` and by :meth:`with_seq`)
        self.size = HEADER_SIZE + len(self._payload)
        # Lazy cache for the telemetry trace id ("sender/app#seq"); the
        # id is derived from immutable header fields, so once built it
        # stays valid wherever the message travels.
        self._trace_id: str | None = None
        # Telemetry-only arrival stamp for the current hop (set at
        # enqueue, read at forward).  Not part of the wire format — the
        # 24-byte header has no spare field — and advisory only: a
        # by-reference multicast may restamp it, which can shorten but
        # never corrupt the observed hop latency.
        self._hop_t0: float | None = None
        # Wire-frame cache: messages that arrived off the wire keep
        # their frame bytes, so a relay re-sends the identical buffer
        # without re-packing (and byte identity across hops is literal).
        # ``_raw_seq`` guards the one mutable header field: the cache is
        # only valid while ``seq`` still matches it.
        self._raw: bytes | None = None
        self._raw_seq = seq

    # --- read-only header accessors -------------------------------------------

    @property
    def type(self) -> int:
        """The 32-bit message type."""
        return self._type

    @property
    def sender(self) -> NodeId:
        """The *original* sender of the message (not the last hop)."""
        return self._sender

    @property
    def app(self) -> AppId:
        """The application this message belongs to."""
        return self._app

    @property
    def commodity(self) -> AppId:
        """The multi-commodity flow this message belongs to.

        Commodities ride the ``app`` header field: the 24-byte wire
        header has no spare slot, and the paper already keys sessions by
        application id, so a commodity *is* an app whose messages share
        a sink.  The alias exists so routing code reads as the
        backpressure literature writes (per-commodity queues, Q_n^c)
        while sinks and telemetry keep attributing by app unchanged.
        """
        return self._app

    @property
    def payload(self) -> bytes:
        """The application data carried by this message."""
        payload = self._payload
        if payload is None:
            # Materialized on first touch: pure relays forward the raw
            # frame without ever slicing the payload out of it.
            payload = self._payload = self._raw[HEADER_SIZE:]  # type: ignore[index]
        return payload

    # --- codec -----------------------------------------------------------------

    def pack(self) -> bytes:
        """Serialize to wire bytes (header then payload).

        Messages unpacked off the wire (or packed once already) return
        their cached frame as long as ``seq`` has not been rewritten —
        the relay fast path sends the identical bytes it received.
        """
        raw = self._raw
        if raw is not None and self._raw_seq == self.seq:
            return raw
        payload = self.payload
        raw = _HEADER_STRUCT.pack(
            self._type,
            ip_to_int(self._sender.ip),
            self._sender.port,
            self._app,
            self.seq,
            len(payload),
        ) + payload
        self._raw = raw
        self._raw_seq = self.seq
        return raw

    def cached_frame(self) -> bytes | None:
        """The wire frame, if one is already materialized and current.

        Writers use this to emit a single pre-built buffer instead of
        header + payload; ``None`` means the caller should pack (or
        write the two buffers zero-copy).
        """
        raw = self._raw
        if raw is not None and self._raw_seq == self.seq:
            return raw
        return None

    def header_bytes(self) -> bytes:
        """The packed 24-byte header alone.

        Writers that can emit header and payload as separate buffers
        (e.g. :func:`repro.net.framing.write_message`) avoid copying the
        payload into a concatenated frame — the payload bytes object is
        handed to the transport by reference.
        """
        return _HEADER_STRUCT.pack(
            self._type,
            ip_to_int(self._sender.ip),
            self._sender.port,
            self._app,
            self.seq,
            len(self.payload),
        )

    def header_values(self) -> tuple[int, int, int, int, int, int]:
        """The six header fields in wire order, ready for ``struct`` packing.

        Batch writers (:func:`repro.net.framing.write_batch`) splice the
        tuples of a whole sender-drain burst into ONE vectorized
        ``struct.Struct`` call instead of packing 24 bytes per message.
        """
        return (
            self._type,
            ip_to_int(self._sender.ip),
            self._sender.port,
            self._app,
            self.seq,
            len(self.payload),
        )

    @classmethod
    def unpack(cls, data: bytes | bytearray | memoryview, max_payload: int = MAX_PAYLOAD) -> "Message":
        """Deserialize a message from wire bytes.

        The header is parsed in place (``unpack_from`` on a memoryview —
        no copy of the receive buffer), and only the payload bytes are
        materialized.  Raises :class:`~repro.errors.CodecError` when the
        buffer is truncated, carries trailing garbage, or declares an
        oversized payload.
        """
        view = memoryview(data)
        total = view.nbytes
        if total < HEADER_SIZE:
            raise CodecError(f"truncated header: {total} < {HEADER_SIZE} bytes")
        type_, ip_int, port, app, seq, payload_size = _HEADER_STRUCT.unpack_from(view)
        if payload_size > max_payload:
            raise CodecError(f"declared payload {payload_size} exceeds limit {max_payload}")
        if total != HEADER_SIZE + payload_size:
            raise CodecError(
                f"payload length mismatch: header declares {payload_size}, "
                f"buffer carries {total - HEADER_SIZE}"
            )
        sender = _NODE_CACHE.get((ip_int, port))
        if sender is None:
            sender = NodeId(int_to_ip(ip_int), port)
            if len(_NODE_CACHE) < _NODE_CACHE_LIMIT:
                _NODE_CACHE[(ip_int, port)] = sender
        # Fast path past __init__'s re-validation: every field was either
        # range-checked above or is structurally valid by construction.
        # The payload stays unmaterialized (sliced lazily from the cached
        # frame) so a pure relay never copies it out.
        msg = cls.__new__(cls)
        msg._type = type_
        msg._sender = sender
        msg._app = app
        msg.seq = seq
        msg._payload = None if payload_size else b""
        msg.size = total
        msg._trace_id = None
        msg._hop_t0 = None
        msg._raw = data if type(data) is bytes else view.tobytes()
        msg._raw_seq = seq
        return msg

    # --- copying ---------------------------------------------------------------

    def clone(self) -> "Message":
        """Deep-copy the message (the paper's ``Msg`` copy constructor).

        Algorithms that want to re-``send`` a non-data message they
        received must clone it first (Section 2.3); data messages may be
        forwarded by reference.
        """
        return Message(self._type, self._sender, self._app, self.payload, seq=self.seq)

    def with_seq(self, seq: int) -> "Message":
        """A copy sharing the payload but carrying a different sequence number."""
        clone = Message.__new__(Message)
        clone._type = self._type
        clone._sender = self._sender
        clone._app = self._app
        clone.seq = seq
        clone._payload = self.payload
        clone.size = self.size
        clone._trace_id = None
        clone._hop_t0 = None
        clone._raw = None
        clone._raw_seq = seq
        return clone

    # --- structured payload helpers ---------------------------------------------

    @classmethod
    def with_fields(
        cls,
        type_: int,
        sender: NodeId,
        app: AppId,
        /,
        seq: int = 0,
        **fields: Any,
    ) -> "Message":
        """Build a message whose payload is a JSON object of ``fields``.

        Control messages in the reproduction carry small structured
        payloads; JSON keeps them debuggable while still being counted
        byte-for-byte in overhead experiments.
        """
        payload = json.dumps(fields, sort_keys=True, separators=(",", ":")).encode()
        return cls(type_, sender, app, payload, seq=seq)

    def fields(self) -> dict[str, Any]:
        """Decode a JSON-object payload produced by :meth:`with_fields`."""
        try:
            decoded = json.loads(self.payload.decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CodecError(f"payload is not a JSON object: {exc}") from exc
        if not isinstance(decoded, dict):
            raise CodecError("payload JSON is not an object")
        return decoded

    # --- dunder ----------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"Message({type_name(self._type)}, sender={self._sender}, "
            f"app={self._app}, seq={self.seq}, payload={self.size - HEADER_SIZE}B)"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Message):
            return NotImplemented
        return (
            self._type == other._type
            and self._sender == other._sender
            and self._app == other._app
            and self.seq == other.seq
            and self.payload == other.payload
        )

    def __hash__(self) -> int:
        return hash((self._type, self._sender, self._app, self.seq, self.payload))
