"""Unit tests for the link queue's bounds and the wire framing."""

import asyncio

import pytest

from repro.core.buffer import BoundedQueue
from repro.core.ids import NodeId
from repro.core.message import Message
from repro.core.msgtypes import MsgType
from repro.errors import CodecError
from repro.net.framing import (
    expect_hello,
    hello_message,
    pack_headers,
    read_message,
    unwrap_proxy,
    wrap_proxy_down,
    write_batch,
    write_message,
)

SENDER = NodeId("127.0.0.1", 9999)


def run(coro):
    return asyncio.run(coro)


def test_invalid_capacity():
    # The asyncio engine's link queues are core BoundedQueues.
    with pytest.raises(ValueError):
        BoundedQueue(capacity=0)


def test_stream_roundtrip_multiple_messages():
    async def scenario():
        server_received = []
        done = asyncio.Event()

        async def handler(reader, writer):
            for _ in range(3):
                server_received.append(await read_message(reader))
            writer.close()
            done.set()

        server = await asyncio.start_server(handler, host="127.0.0.1", port=0)
        port = server.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        messages = [
            Message(MsgType.DATA, SENDER, 1, b"first", seq=1),
            Message(MsgType.DATA, SENDER, 1, b"", seq=2),  # empty payload
            Message(MsgType.S_QUERY, SENDER, 2, b"x" * 5000, seq=3),
        ]
        for msg in messages:
            write_message(writer, msg)
        await writer.drain()
        await done.wait()
        writer.close()
        server.close()
        await server.wait_closed()
        return server_received, messages

    received, sent = run(scenario())
    assert received == sent


def test_oversized_frame_refused():
    async def scenario():
        fail = {}
        done = asyncio.Event()

        async def handler(reader, writer):
            try:
                await read_message(reader)
            except CodecError as exc:
                fail["error"] = str(exc)
            writer.close()
            done.set()

        server = await asyncio.start_server(handler, host="127.0.0.1", port=0)
        port = server.sockets[0].getsockname()[1]
        _, writer = await asyncio.open_connection("127.0.0.1", port)
        # Forge a header declaring a gigantic payload.
        forged = Message(MsgType.DATA, SENDER, 1, b"abc").pack()
        forged = forged[:20] + (100 * 1024 * 1024).to_bytes(4, "big") + forged[24:]
        writer.write(forged)
        await writer.drain()
        await done.wait()
        writer.close()
        server.close()
        await server.wait_closed()
        return fail

    fail = run(scenario())
    assert "refusing" in fail["error"]


def test_hello_message_identifies_node():
    hello = hello_message(SENDER)
    assert hello.type == MsgType.HELLO
    assert hello.fields()["node"] == str(SENDER)


def test_hello_capability_fields_drop_none():
    hello = hello_message(SENDER, shm=None)
    assert "shm" not in hello.fields()
    offer = {"cookie": "boot", "c2s": "a", "s2c": "b", "size": 4096}
    hello = hello_message(SENDER, shm=offer)
    assert hello.fields()["shm"] == offer


async def _serve_one_frame(raw: bytes):
    """Write ``raw`` to a server-side reader, close, and read one message."""
    outcome = {}
    done = asyncio.Event()

    async def handler(reader, writer):
        try:
            outcome["msg"] = await read_message(reader)
        except Exception as exc:
            outcome["error"] = exc
        writer.close()
        done.set()

    server = await asyncio.start_server(handler, host="127.0.0.1", port=0)
    port = server.sockets[0].getsockname()[1]
    _, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(raw)
    await writer.drain()
    writer.close()  # EOF lands mid-frame for truncated inputs
    await done.wait()
    server.close()
    await server.wait_closed()
    return outcome


def test_truncated_header_raises_incomplete_read():
    raw = Message(MsgType.DATA, SENDER, 1, b"abcdef").pack()[:10]
    outcome = run(_serve_one_frame(raw))
    assert isinstance(outcome["error"], asyncio.IncompleteReadError)


def test_truncated_payload_raises_incomplete_read():
    raw = Message(MsgType.DATA, SENDER, 1, b"abcdef").pack()[:-3]
    outcome = run(_serve_one_frame(raw))
    assert isinstance(outcome["error"], asyncio.IncompleteReadError)


def test_expect_hello_rejects_wrong_first_frame():
    async def scenario():
        outcome = {}
        done = asyncio.Event()

        async def handler(reader, writer):
            try:
                await expect_hello(reader, timeout=2.0)
            except CodecError as exc:
                outcome["error"] = str(exc)
            writer.close()
            done.set()

        server = await asyncio.start_server(handler, host="127.0.0.1", port=0)
        port = server.sockets[0].getsockname()[1]
        _, writer = await asyncio.open_connection("127.0.0.1", port)
        write_message(writer, Message(MsgType.DATA, SENDER, 1, b"not a hello"))
        await writer.drain()
        await done.wait()
        writer.close()
        server.close()
        await server.wait_closed()
        return outcome

    outcome = run(scenario())
    assert "expected HELLO" in outcome["error"]


def test_batched_writes_do_not_interleave_frames():
    """Many frames written before a single drain arrive intact and ordered.

    ``write_message`` queues header and payload as two separate buffers;
    this pins down that the writev-style batched flush (N frames, one
    ``drain()``) never interleaves or reorders those buffers on the wire.
    """
    async def scenario():
        received = []
        done = asyncio.Event()
        count = 50

        async def handler(reader, writer):
            for _ in range(count):
                received.append(await read_message(reader))
            writer.close()
            done.set()

        server = await asyncio.start_server(handler, host="127.0.0.1", port=0)
        port = server.sockets[0].getsockname()[1]
        _, writer = await asyncio.open_connection("127.0.0.1", port)
        sent = [
            Message(MsgType.DATA, SENDER, 1, bytes([i % 256]) * (i * 13 % 700), seq=i)
            for i in range(count)
        ]
        for msg in sent:  # the whole batch rides one flush
            write_message(writer, msg)
        await writer.drain()
        await done.wait()
        writer.close()
        server.close()
        await server.wait_closed()
        return received, sent

    received, sent = run(scenario())
    assert received == sent


# --- vectorized batch codec ---------------------------------------------------


def test_pack_headers_matches_per_message_packing():
    msgs = [
        Message(MsgType.DATA, SENDER, 1, b"abc", seq=1),
        Message(MsgType.S_QUERY, SENDER, 2, b"", seq=-5),  # negative seq
        Message(MsgType.DATA, NodeId("10.0.0.1", 80), 3, b"x" * 999, seq=7),
    ]
    packed = pack_headers(msgs)
    expected = b"".join(m.header_bytes() for m in msgs)
    assert bytes(packed) == expected


def test_pack_headers_caches_the_batch_struct():
    from repro.net.framing import _BATCH_STRUCTS

    msgs = [Message(MsgType.DATA, SENDER, 1, b"", seq=i) for i in range(37)]
    pack_headers(msgs)
    assert 37 in _BATCH_STRUCTS
    # a second call reuses it and still packs correctly
    assert bytes(pack_headers(msgs)) == b"".join(m.header_bytes() for m in msgs)


def _batch_roundtrip(sent):
    async def scenario():
        received = []
        done = asyncio.Event()

        async def handler(reader, writer):
            for _ in range(len(sent)):
                received.append(await read_message(reader))
            writer.close()
            done.set()

        server = await asyncio.start_server(handler, host="127.0.0.1", port=0)
        port = server.sockets[0].getsockname()[1]
        _, writer = await asyncio.open_connection("127.0.0.1", port)
        write_batch(writer, sent)
        await writer.drain()
        await done.wait()
        writer.close()
        server.close()
        await server.wait_closed()
        return received

    return run(scenario())


def test_write_batch_roundtrips_a_fresh_burst():
    sent = [
        Message(MsgType.DATA, SENDER, 1, bytes([i % 256]) * (i * 31 % 500), seq=i)
        for i in range(40)
    ]
    assert _batch_roundtrip(sent) == sent


def test_write_batch_preserves_order_with_cached_frames_mixed_in():
    """Relayed frames (cached wire bytes) interleave with fresh ones."""
    fresh = [Message(MsgType.DATA, SENDER, 1, b"f%d" % i, seq=i) for i in range(6)]
    cached = [
        Message.unpack(Message(MsgType.DATA, SENDER, 2, b"c%d" % i, seq=100 + i).pack())
        for i in range(6)
    ]
    assert all(m.cached_frame() is not None for m in cached)
    sent = [m for pair in zip(fresh, cached) for m in pair]
    assert _batch_roundtrip(sent) == sent


def test_write_batch_single_message_falls_back_to_write_message():
    sent = [Message(MsgType.DATA, SENDER, 1, b"solo", seq=1)]
    assert _batch_roundtrip(sent) == sent


def test_write_batch_empty_payloads():
    sent = [Message(MsgType.DATA, SENDER, 1, b"", seq=i) for i in range(5)]
    assert _batch_roundtrip(sent) == sent


def test_write_batch_loopback_endpoint_hands_objects_over():
    class FakeLoopbackWriter:
        def __init__(self):
            self.sent = []

        def send_message(self, msg):
            self.sent.append(msg)

    writer = FakeLoopbackWriter()
    msgs = [Message(MsgType.DATA, SENDER, 1, b"x", seq=i) for i in range(3)]
    write_batch(writer, msgs)
    assert writer.sent == msgs


# --- proxy envelopes ----------------------------------------------------------


def test_proxy_envelope_roundtrip_is_raw_bytes():
    dest = NodeId("10.0.0.1", 4242)
    inner = Message(MsgType.TRACE, SENDER, 3, b"\x00\xff binary \x01 payload", seq=9)
    down = wrap_proxy_down(SENDER, dest, inner)
    # No hex blow-up: the inner frame rides verbatim as the suffix.
    assert down.type == MsgType.PROXY
    assert down.payload.endswith(inner.pack())
    assert unwrap_proxy(down) == (dest, inner)
    assert unwrap_proxy(down)[1].pack() == inner.pack()
