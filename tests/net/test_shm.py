"""Tests for the shared-memory ring transport (:mod:`repro.net.shm`).

Three layers are pinned down separately:

- :class:`RingBuffer` byte mechanics — wrap-around copies, full-ring
  back pressure, attach-by-name sharing;
- :class:`ShmEndpoint` framing — batched flushes preserve order and
  bytes, messages larger than the free ring cross it in pieces, socket
  EOF surfaces exactly like a dead TCP peer, teardown unlinks segments;
- negotiation — two live engines on one machine converge on shm links
  (and report them in ``transport_mix``), while a disabled acceptor or
  a foreign boot cookie degrades the very same dial to plain TCP.
"""

import asyncio
import os

import pytest

from repro.algorithms.forwarding import CopyForwardAlgorithm, SinkAlgorithm
from repro.core.ids import NodeId
from repro.core.message import Message
from repro.core.msgtypes import MsgType
from repro.net.engine import AsyncioEngine, NetEngineConfig
from repro.net.framing import MAX_FRAME_PAYLOAD, read_message, write_message
from repro.net.shm import (
    RingBuffer,
    ShmEndpoint,
    accept_shm,
    machine_cookie,
    shm_offer,
)

from tests.portalloc import next_addr


def run(coro):
    return asyncio.run(coro)


def data_msg(seq: int, payload: bytes) -> Message:
    return Message(MsgType.DATA, NodeId("127.0.0.1", 7001), 1, payload, seq=seq)


class TestRingBuffer:
    def test_wraparound_roundtrip(self):
        ring = RingBuffer.create(capacity=64)
        try:
            for i in range(10):  # 48 bytes per pass forces wrapping
                blob = bytes([i]) * 48
                assert ring.write_some(memoryview(blob)) == 48
                assert ring.read_available() == blob
        finally:
            ring.release(unlink=True)

    def test_full_ring_applies_back_pressure(self):
        ring = RingBuffer.create(capacity=32)
        try:
            data = memoryview(b"x" * 40)
            assert ring.write_some(data) == 32  # partial write up to capacity
            assert ring.write_some(data, offset=32) == 0  # full: nothing fits
            assert ring.read_available() == b"x" * 32
            assert ring.write_some(data, offset=32) == 8  # space reclaimed
        finally:
            ring.release(unlink=True)

    def test_attach_shares_the_same_bytes(self):
        creator = RingBuffer.create(capacity=128)
        try:
            attacher = RingBuffer.attach(creator.name)
            try:
                creator.write_some(memoryview(b"hello rings"))
                assert attacher.read_available() == b"hello rings"
                assert attacher.capacity == 128
            finally:
                attacher.release(unlink=False)
        finally:
            creator.release(unlink=True)

    def test_unlink_removes_the_segment(self):
        ring = RingBuffer.create(capacity=64)
        name = ring.name
        ring.release(unlink=True)
        with pytest.raises(FileNotFoundError):
            RingBuffer.attach(name)


async def endpoint_pair(ring_bytes=1 << 16):
    """Two connected ShmEndpoints over real rings + a real socket pair."""
    accepted = asyncio.get_running_loop().create_future()

    async def on_accept(reader, writer):
        accepted.set_result((reader, writer))

    server = await asyncio.start_server(on_accept, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    cr, cw = await asyncio.open_connection("127.0.0.1", port)
    sr, sw = await accepted
    c2s, s2c = RingBuffer.create(ring_bytes), RingBuffer.create(ring_bytes)
    a = ShmEndpoint(ring_out=c2s, ring_in=s2c, sock_reader=cr, sock_writer=cw,
                    owns_rings=True, max_payload=MAX_FRAME_PAYLOAD)
    b = ShmEndpoint(ring_out=RingBuffer.attach(s2c.name),
                    ring_in=RingBuffer.attach(c2s.name),
                    sock_reader=sr, sock_writer=sw,
                    owns_rings=False, max_payload=MAX_FRAME_PAYLOAD)
    server.close()
    return a, b


class TestShmEndpoint:
    def test_batched_frames_preserve_order_and_bytes(self):
        async def scenario():
            a, b = await endpoint_pair()
            sent = [data_msg(i, bytes([i % 251]) * (i * 7 % 400)) for i in range(100)]
            for msg in sent:  # one flush for the whole batch
                a.send_message(msg)
            await a.drain()
            got = [await b.recv_message() for _ in range(100)]
            a.close()
            b.close()
            return sent, got

        sent, got = run(scenario())
        assert [m.seq for m in got] == [m.seq for m in sent]
        assert all(g.payload == s.payload for g, s in zip(got, sent))
        assert all(g.sender == s.sender for g, s in zip(got, sent))

    def test_traffic_larger_than_the_ring_crosses_it(self):
        async def scenario():
            # 4 KiB rings, ~200 KiB of frames: the producer must park on
            # a full ring and resume as the consumer reclaims space.
            a, b = await endpoint_pair(ring_bytes=4096)
            n, received = 100, []

            async def producer():
                for i in range(n):
                    a.send_message(data_msg(i, b"z" * 2000))
                    await a.drain()

            async def consumer():
                for _ in range(n):
                    received.append(await b.recv_message())

            await asyncio.gather(producer(), consumer())
            a.close()
            b.close()
            return received

        received = run(scenario())
        assert [m.seq for m in received] == list(range(100))
        assert all(m.payload == b"z" * 2000 for m in received)

    def test_peer_close_surfaces_eof_after_draining(self):
        async def scenario():
            a, b = await endpoint_pair()
            a.send_message(data_msg(0, b"last words"))
            await a.drain()
            a.close()  # socket FIN + producer_closed flag
            final = await b.recv_message()  # published data still readable
            with pytest.raises(asyncio.IncompleteReadError):
                await b.recv_message()
            b.close()
            return final

        final = run(scenario())
        assert final.payload == b"last words"

    def test_send_after_close_raises_connection_reset(self):
        async def scenario():
            a, b = await endpoint_pair()
            a.close()
            with pytest.raises(ConnectionResetError):
                a.send_message(data_msg(0, b""))
            b.close()

        run(scenario())

    def test_close_while_parked_lets_the_cancel_through(self):
        """``close()`` releases the ring memory; a reader or writer parked
        at that moment and then cancelled (how the engine tears a peer
        down) must end as cancelled, not trip over the released ring
        while clearing its park flag."""

        async def scenario():
            a, b = await endpoint_pair(ring_bytes=4096)
            reader = asyncio.ensure_future(a.recv_message())  # nothing to read
            for i in range(4):  # twice the ring, nobody consuming
                a.send_message(data_msg(i, b"z" * 2000))
            writer = asyncio.ensure_future(a.drain())
            await asyncio.sleep(0.05)
            assert not reader.done() and not writer.done()  # both parked
            a.close()
            reader.cancel()
            writer.cancel()
            outcomes = await asyncio.gather(reader, writer, return_exceptions=True)
            b.close()
            return outcomes

        outcomes = run(scenario())
        assert [type(o) for o in outcomes] == [asyncio.CancelledError] * 2, outcomes

    def test_owner_close_unlinks_both_segments(self):
        async def scenario():
            a, b = await endpoint_pair()
            names = (a._out.name, a._in.name)
            b.close()  # attacher first: must NOT unlink
            for name in names:
                RingBuffer.attach(name).release(unlink=False)
            a.close()  # owner: unlinks both
            return names

        names = run(scenario())
        for name in names:
            with pytest.raises(FileNotFoundError):
                RingBuffer.attach(name)


async def start_engine(algorithm, shm_ring_bytes):
    engine = AsyncioEngine(
        next_addr(), algorithm,
        config=NetEngineConfig(shm_ring_bytes=shm_ring_bytes),
    )
    await engine.start()
    return engine


class TestNegotiation:
    def test_co_machine_engines_converge_on_shm(self):
        async def scenario():
            src_alg, dst_alg = CopyForwardAlgorithm(), SinkAlgorithm()
            src = await start_engine(src_alg, 1 << 16)
            dst = await start_engine(dst_alg, 1 << 16)
            src_alg.set_downstreams([dst.node_id])
            src.start_source(app=1, payload_size=2000)
            await asyncio.sleep(0.5)
            mixes = (src.transport_mix(), dst.transport_mix())
            received = dst_alg.received
            await src.stop()
            await dst.stop()
            return mixes, received

        (src_mix, dst_mix), received = run(scenario())
        assert received > 10
        assert src_mix == {"shm": 1}
        assert dst_mix == {"shm": 1}

    def test_disabled_acceptor_falls_back_to_tcp(self):
        async def scenario():
            src_alg, dst_alg = CopyForwardAlgorithm(), SinkAlgorithm()
            src = await start_engine(src_alg, 1 << 16)
            dst = await start_engine(dst_alg, 0)  # shm off on this side
            src_alg.set_downstreams([dst.node_id])
            src.start_source(app=1, payload_size=2000)
            await asyncio.sleep(0.5)
            mixes = (src.transport_mix(), dst.transport_mix())
            received = dst_alg.received
            await src.stop()
            await dst.stop()
            return mixes, received

        (src_mix, dst_mix), received = run(scenario())
        assert received > 10
        assert src_mix == {"tcp": 1}
        assert dst_mix == {"tcp": 1}

    def test_fallback_leaves_no_segments_behind(self):
        async def scenario():
            before = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else None
            src_alg, dst_alg = CopyForwardAlgorithm(), SinkAlgorithm()
            src = await start_engine(src_alg, 1 << 16)
            dst = await start_engine(dst_alg, 0)
            src_alg.set_downstreams([dst.node_id])
            await asyncio.sleep(0.3)
            await src.stop()
            await dst.stop()
            after = set(os.listdir("/dev/shm")) if before is not None else None
            return before, after

        before, after = run(scenario())
        if before is not None:  # denied offers must unlink their rings
            assert after - before == set()

    def test_foreign_cookie_is_denied(self):
        async def scenario():
            accepted = asyncio.get_running_loop().create_future()

            async def on_accept(reader, writer):
                accepted.set_result((reader, writer))

            server = await asyncio.start_server(on_accept, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            cr, cw = await asyncio.open_connection("127.0.0.1", port)
            sr, sw = await accepted
            rings, offer = shm_offer(1 << 14)
            assert offer["cookie"] == machine_cookie()
            offer["cookie"] = "not-this-machine"
            endpoint = await accept_shm(
                offer, NodeId("127.0.0.1", 7999), sr, sw,
                enabled=True, max_payload=MAX_FRAME_PAYLOAD,
            )
            ack = await read_message(cr)
            rings[0].release(unlink=True)
            rings[1].release(unlink=True)
            cw.close()
            sw.close()
            server.close()
            return endpoint, ack

        endpoint, ack = run(scenario())
        assert endpoint is None
        assert ack.type == MsgType.SHM_ACK
        assert ack.fields()["ok"] is False

    def test_bogus_segment_names_are_denied_not_fatal(self):
        async def scenario():
            accepted = asyncio.get_running_loop().create_future()

            async def on_accept(reader, writer):
                accepted.set_result((reader, writer))

            server = await asyncio.start_server(on_accept, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            cr, cw = await asyncio.open_connection("127.0.0.1", port)
            sr, sw = await accepted
            offer = {"cookie": machine_cookie(), "c2s": "no_such_seg_a",
                     "s2c": "no_such_seg_b", "size": 1 << 14}
            endpoint = await accept_shm(
                offer, NodeId("127.0.0.1", 7999), sr, sw,
                enabled=True, max_payload=MAX_FRAME_PAYLOAD,
            )
            ack = await read_message(cr)
            cw.close()
            sw.close()
            server.close()
            return endpoint, ack

        endpoint, ack = run(scenario())
        assert endpoint is None
        assert ack.fields()["ok"] is False
