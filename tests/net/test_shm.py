"""Tests for the shared-memory ring transport (:mod:`repro.net.shm`).

Three layers are pinned down separately:

- :class:`RingBuffer` byte mechanics — wrap-around copies, full-ring
  back pressure, attach-by-name sharing;
- :class:`ShmEndpoint` on the push surface — batched flushes preserve
  order and bytes, traffic larger than the ring crosses it with the
  producer parked and woken by the doorbell, socket EOF reaches the
  attached end exactly like a dead TCP peer, teardown unlinks segments;
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
    PARK_POLL,
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


class RecordingEnd:
    """A link's end that records what the endpoint pushes to it."""

    def __init__(self):
        self.bursts = []
        self.lost = None
        self.woken = asyncio.Event()  # set by every on_writable

    def on_frames(self, frames):
        self.bursts.append(frames)

    def on_lost(self, exc):
        self.lost = exc

    def on_writable(self):
        self.woken.set()

    @property
    def frames(self):
        return [msg for burst in self.bursts for msg in burst]

    async def wait(self, predicate, timeout=2.0):
        deadline = asyncio.get_running_loop().time() + timeout
        while not predicate(self):
            assert asyncio.get_running_loop().time() < deadline, "the end was never pushed"
            await asyncio.sleep(0.002)


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
            end = RecordingEnd()
            b.attach(end)
            sent = [data_msg(i, bytes([i % 251]) * (i * 7 % 400)) for i in range(100)]
            for msg in sent:  # one flush for the whole batch
                a.send_message(msg)
            assert a.flush()
            await end.wait(lambda e: len(e.frames) == 100)
            a.close()
            b.close()
            return sent, end.frames

        sent, got = run(scenario())
        assert [m.seq for m in got] == [m.seq for m in sent]
        assert all(g.payload == s.payload for g, s in zip(got, sent))
        assert all(g.sender == s.sender for g, s in zip(got, sent))

    def test_traffic_larger_than_the_ring_crosses_it(self):
        async def scenario():
            # 4 KiB rings, ~200 KiB of frames: the producer must park on
            # a full ring and resume as the consumer reclaims space.
            a, b = await endpoint_pair(ring_bytes=4096)
            sender, receiver = RecordingEnd(), RecordingEnd()
            a.attach(sender)
            b.attach(receiver)
            n, parked = 100, 0
            for i in range(n):
                a.send_message(data_msg(i, b"z" * 2000))
                sender.woken.clear()
                while not a.flush():  # ring full: the doorbell brings on_writable
                    parked += 1
                    await asyncio.wait_for(sender.woken.wait(), timeout=2.0)
                    sender.woken.clear()
            await receiver.wait(lambda e: len(e.frames) == n)
            a.close()
            b.close()
            return receiver.frames, parked

        received, parked = run(scenario())
        assert parked > 0
        assert [m.seq for m in received] == list(range(100))
        assert all(m.payload == b"z" * 2000 for m in received)

    def test_peer_close_surfaces_eof_after_draining(self):
        async def scenario():
            a, b = await endpoint_pair()
            a.send_message(data_msg(0, b"last words"))
            assert a.flush()
            a.close()  # socket FIN + producer_closed flag
            end = RecordingEnd()
            b.attach(end)
            await end.wait(lambda e: e.lost is not None)
            b.close()
            return end.frames, end.lost

        frames, lost = run(scenario())
        # published data is handed over first, then the socket's EOF
        assert [msg.payload for msg in frames] == [b"last words"]
        assert isinstance(lost, asyncio.IncompleteReadError)

    def test_send_after_close_raises_connection_reset(self):
        async def scenario():
            a, b = await endpoint_pair()
            a.close()
            with pytest.raises(ConnectionResetError):
                a.send_message(data_msg(0, b""))
            b.close()

        run(scenario())

    def test_close_while_parked_lets_the_cancel_through(self):
        """``close()`` releases the ring memory; an end attached at that
        moment, its consumer parked on an empty ring and its producer on a
        full one (how the engine tears a peer down), is pushed nothing
        more, and neither the doorbell listener nor the poll trips over
        the released ring."""

        async def scenario():
            errors = []
            asyncio.get_running_loop().set_exception_handler(lambda _, ctx: errors.append(ctx))
            a, b = await endpoint_pair(ring_bytes=4096)
            end = RecordingEnd()
            a.attach(end)  # nothing to read
            for i in range(4):  # twice the ring, nobody consuming
                a.send_message(data_msg(i, b"z" * 2000))
            assert not a.flush()  # parked on the full ring
            await asyncio.sleep(0.01)
            a.close()
            b.close()
            await asyncio.sleep(2 * PARK_POLL)  # a poll period and the socket EOF pass
            return end, errors

        end, errors = run(scenario())
        assert errors == []
        assert end.bursts == [] and end.lost is None and not end.woken.is_set()

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

    def test_a_burst_larger_than_the_ring_arrives_whole_with_nothing_after_it(self):
        """The last flush parks on a full ring with nothing staged behind
        it: the doorbell alone must bring the rest of it across."""

        async def scenario():
            dst_alg = SinkAlgorithm()
            src = await start_engine(SinkAlgorithm(), 4096)
            dst = await start_engine(dst_alg, 4096)
            assert await src.connect(dst.node_id)
            for seq in range(50):
                src.send(data_msg(seq, b"r" * 2000), dst.node_id)
            for _ in range(200):
                if dst_alg.received == 50:
                    break
                await asyncio.sleep(0.01)
            mix = src.transport_mix()
            await src.stop()
            await dst.stop()
            return mix, dst_alg.received

        assert run(scenario()) == ({"shm": 1}, 50)
