"""Burst-native link I/O: one parser for every chunking, one read and one
write per wakeup, and no frame lost uncounted when a link goes mid-burst.

The frame sweep (:func:`repro.net.framing.parse_frames`) is shared by the
framed TCP reader and the shm endpoint, so the same chunked streams are
driven through all three: the bare assembler, a ``FramedReader`` over an
``asyncio.StreamReader``, and a ``ShmEndpoint`` over real rings.
"""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.forwarding import SinkAlgorithm
from repro.core.ids import NodeId
from repro.core.message import HEADER_SIZE, Message
from repro.core.msgtypes import MsgType
from repro.errors import CodecError
from repro.net.chaos import ChaosController
from repro.net.engine import AsyncioEngine, NetEngineConfig
from repro.net.framing import (
    CHUNK,
    MAX_FRAME_PAYLOAD,
    FrameAssembler,
    FramedReader,
    hello_message,
    parse_frames,
    write_batch,
    write_message,
)

from tests.net.test_shm import endpoint_pair
from tests.portalloc import next_addr

SENDER = NodeId("127.0.0.1", 9999)


def run(coro):
    return asyncio.run(coro)


def frame(seq: int, payload: bytes) -> bytes:
    return Message(MsgType.DATA, SENDER, 1, payload, seq=seq).pack()


def oversize_header() -> bytes:
    """A header declaring more payload than any reader accepts."""
    return frame(0, b"")[:20] + (MAX_FRAME_PAYLOAD + 1).to_bytes(4, "big")


def cut(stream: bytes, points: list[int]) -> list[bytes]:
    edges = [0, *sorted(points), len(stream)]
    return [stream[a:b] for a, b in zip(edges, edges[1:]) if b > a]


# --- the same chunks through each transport -----------------------------------
#
# Each driver feeds the chunks one at a time, collects what comes out after
# every chunk, ends the stream, and returns (messages, the error that ended it).


def through_assembler(chunks):
    assembler = FrameAssembler()
    got = []
    try:
        for chunk in chunks:
            got += assembler.feed(chunk)
    except CodecError as exc:
        return got, exc
    return got, assembler.eof_error()


def through_framed_reader(chunks):
    async def scenario():
        stream = asyncio.StreamReader()
        reader = FramedReader(stream)
        got = []

        async def consume():
            while True:
                got.append(await reader.recv_message())
                got.extend(reader.drain_frames())

        consumer = asyncio.ensure_future(consume())
        for chunk in chunks:
            stream.feed_data(chunk)
            await asyncio.sleep(0)  # the consumer takes it before the next one
            if consumer.done():
                break
        stream.feed_eof()
        try:
            await asyncio.wait_for(consumer, timeout=2.0)
        except (CodecError, asyncio.IncompleteReadError) as exc:
            return got, exc

    return run(scenario())


def through_shm(chunks):
    async def scenario():
        a, b = await endpoint_pair()
        got = []
        try:
            for chunk in chunks:
                assert a._out.write_some(memoryview(chunk)) == len(chunk)
                got += b.drain_frames()  # one synchronous sweep per chunk
            a.close()
            await asyncio.wait_for(b.recv_message(), timeout=2.0)
        except (CodecError, asyncio.IncompleteReadError) as exc:
            return got, exc
        finally:
            a.close()
            b.close()

    return run(scenario())


TRANSPORTS = pytest.mark.parametrize(
    "through", [through_assembler, through_framed_reader, through_shm])

payload_lists = st.lists(st.binary(max_size=200), min_size=1, max_size=10)


def cuts_of(data, stream: bytes) -> list[int]:
    return data.draw(st.lists(st.integers(0, len(stream)), max_size=12), label="cuts")


@TRANSPORTS
@settings(max_examples=40, deadline=None)
@given(payloads=payload_lists, data=st.data())
def test_any_chunking_yields_the_same_frames(through, payloads, data):
    frames = [frame(seq, payload) for seq, payload in enumerate(payloads)]
    stream = b"".join(frames)
    got, error = through(cut(stream, cuts_of(data, stream)))
    assert [msg._raw for msg in got] == frames
    assert [msg.payload for msg in got] == payloads
    # a clean end of stream reads as readexactly's EOF before a header
    assert isinstance(error, asyncio.IncompleteReadError)
    assert (error.partial, error.expected) == (b"", HEADER_SIZE)


@TRANSPORTS
@settings(max_examples=40, deadline=None)
@given(payloads=payload_lists, data=st.data())
def test_eof_mid_frame_carries_the_partial(through, payloads, data):
    frames = [frame(seq, payload) for seq, payload in enumerate(payloads)]
    stream = b"".join(frames)
    keep = data.draw(st.integers(1, len(frames[-1]) - 1), label="bytes kept of the last frame")
    stream = stream[: len(stream) - len(frames[-1]) + keep]
    got, error = through(cut(stream, cuts_of(data, stream)))
    assert [msg._raw for msg in got] == frames[:-1]
    assert isinstance(error, asyncio.IncompleteReadError)
    if keep < HEADER_SIZE:  # mid-header: what arrived of the header
        assert (error.partial, error.expected) == (frames[-1][:keep], HEADER_SIZE)
    else:  # mid-payload: what arrived of the payload the header declares
        assert error.partial == frames[-1][HEADER_SIZE:keep]
        assert error.expected == len(payloads[-1])


@TRANSPORTS
@settings(max_examples=40, deadline=None)
@given(payloads=payload_lists, data=st.data())
def test_oversize_frame_refused_after_the_frames_ahead_of_it(through, payloads, data):
    frames = [frame(seq, payload) for seq, payload in enumerate(payloads)]
    stream = b"".join(frames) + oversize_header()
    chunks = cut(stream, cuts_of(data, stream))
    got, error = through([*chunks, b"the body it will never buffer"])
    assert [msg._raw for msg in got] == frames
    assert isinstance(error, CodecError) and "refusing" in str(error)


def test_parse_frames_reports_what_it_consumed():
    frames = [frame(0, b"abc"), frame(1, b""), frame(2, b"z" * 50)]
    stream = b"".join(frames)
    got, used = parse_frames(stream + frames[2][:30])
    assert [msg._raw for msg in got] == frames and used == len(stream)
    assert parse_frames(b"") == ([], 0)
    assert parse_frames(frames[0][:10]) == ([], 0)
    with pytest.raises(CodecError):
        parse_frames(oversize_header())
    with pytest.raises(CodecError):
        parse_frames(frame(0, b"x" * 11), max_payload=10)


# --- wakeups and copies --------------------------------------------------------


class SpyStream(asyncio.StreamReader):
    """Records every ``read`` and the object it returned."""

    def __init__(self):
        super().__init__()
        self.reads = []

    async def read(self, n=-1):
        data = await super().read(n)
        self.reads.append((n, data))
        return data


def test_a_burst_costs_one_read_and_a_single_frame_no_copy():
    async def scenario():
        stream = SpyStream()
        reader = FramedReader(stream)
        burst = [frame(seq, b"p" * 100) for seq in range(9)]
        stream.feed_data(b"".join(burst))
        got = [await reader.recv_message(), *reader.drain_frames()]
        assert [msg._raw for msg in got] == burst
        assert [n for n, _ in stream.reads] == [CHUNK]  # nine frames, one await

        # a paced single frame: one await, and the message keeps the very
        # bytes object the stream handed over
        stream.feed_data(frame(9, b"q" * 100))
        msg = await reader.recv_message()
        assert reader.drain_frames() == []
        assert len(stream.reads) == 2
        assert msg._raw is stream.reads[1][1]

    run(scenario())


class CountingController(ChaosController):
    """No faults: wraps each connection to count transport calls."""

    def __init__(self):
        super().__init__()
        self.writers = {}
        self.readers = {}

    def wrap(self, local, remote, reader, writer):
        reader, writer = super().wrap(local, remote, reader, writer)
        writer = self.writers[(local, remote)] = _CountingWriter(writer)
        reader = self.readers[(local, remote)] = _CountingReader(reader)
        return reader, writer


class _CountingWriter:
    def __init__(self, writer):
        self._writer = writer
        self.flushes = []  # per drain(): the transport calls made since the last
        self._calls = []

    def write(self, data):
        self._calls.append(("write", 1))
        self._writer.write(data)

    def writelines(self, parts):
        self._calls.append(("writelines", len(parts)))
        self._writer.writelines(parts)

    async def drain(self):
        if self._calls:
            self.flushes.append(self._calls)
            self._calls = []
        await self._writer.drain()

    def __getattr__(self, name):
        return getattr(self._writer, name)


class _CountingReader:
    def __init__(self, reader):
        self._reader = reader
        self.reads = 0

    async def read(self, n=-1):
        data = await self._reader.read(n)
        if data:
            self.reads += 1
        return data


TICKS, BURST = 20, 6


def test_two_node_chain_one_write_per_flush_one_read_per_burst(monkeypatch):
    bursts = []
    drain_frames = FramedReader.drain_frames

    def counting_drain_frames(self):
        frames = drain_frames(self)
        bursts.append(1 + len(frames))
        return frames

    monkeypatch.setattr(FramedReader, "drain_frames", counting_drain_frames)

    async def scenario():
        chaos = CountingController()
        sink_alg = SinkAlgorithm()
        sink = AsyncioEngine(next_addr(), sink_alg, config=NetEngineConfig(chaos=chaos))
        await sink.start()
        src = AsyncioEngine(next_addr(), SinkAlgorithm(), config=NetEngineConfig(chaos=chaos))
        await src.start()
        for tick in range(TICKS):  # six frames staged per tick: one flush carries them
            for seq in range(tick * BURST, (tick + 1) * BURST):
                src.send(Message(MsgType.DATA, src.node_id, 1, b"b" * 16, seq=seq), sink.node_id)
            await asyncio.sleep(0.01)
        for _ in range(100):
            if sink_alg.received == TICKS * BURST:
                break
            await asyncio.sleep(0.02)
        writer = chaos.writers[(src.node_id, sink.node_id)]
        reader = chaos.readers[(sink.node_id, src.node_id)]
        await src.stop()
        await sink.stop()
        return sink_alg.received, writer.flushes, reader.reads

    received, flushes, reads = run(scenario())
    assert received == TICKS * BURST
    multi = [calls for calls in flushes if calls[0][0] == "writelines"]
    # every multi-frame flush reached the transport as ONE call ...
    assert multi and all(len(calls) == 1 for calls in multi)
    # ... and a lone frame keeps the per-message path (header + payload)
    assert all(calls in ([("write", 1)], [("write", 1)] * 2)
               for calls in flushes if calls[0][0] == "write")
    # 16-byte payloads: every read carries whole frames, so one read per burst
    assert sum(bursts) == received
    assert reads == len(bursts) < received


def test_write_batch_hands_the_transport_one_call():
    class Recorder:
        def __init__(self):
            self.calls = []

        def write(self, data):
            self.calls.append(bytes(data))

        def writelines(self, parts):
            self.calls.append(b"".join(parts))

    fresh = [Message(MsgType.DATA, SENDER, 1, b"f%d" % i, seq=i) for i in range(3)]
    relayed = [Message.unpack(frame(10 + i, b"r%d" % i)) for i in range(3)]
    for burst in (fresh, relayed, [fresh[0], relayed[0], fresh[1]]):
        writer = Recorder()
        write_batch(writer, burst)
        assert writer.calls == [b"".join(msg.pack() for msg in burst)]


# --- conservation when the link goes mid-burst -----------------------------------


def test_frames_in_hand_are_counted_when_the_upstream_is_dropped_mid_burst():
    """emitted = delivered + lost_messages, with the receiver parked mid-burst."""

    async def scenario():
        sink_alg = SinkAlgorithm()
        sink = AsyncioEngine(next_addr(), sink_alg, config=NetEngineConfig(buffer_capacity=4))
        # the switch stalls after a few deliveries, so the port buffer fills
        switch_round = sink._switch_round
        sink._switch_round = lambda: sink_alg.received < 3 and switch_round()
        await sink.start()
        # a raw peer: HELLO, then one write carrying a 40-frame burst
        peer_id = next_addr()
        _, writer = await asyncio.open_connection(sink.node_id.ip, sink.node_id.port)
        write_message(writer, hello_message(peer_id))
        emitted = 40
        writer.write(b"".join(
            Message(MsgType.DATA, peer_id, 1, b"x" * 32, seq=seq).pack() for seq in range(emitted)
        ))
        await writer.drain()
        for _ in range(200):  # until the receiver is parked on a full buffer
            ports = sink._scheduler.ports
            if sink_alg.received >= 3 and ports and len(ports[0].buffer) == 4:
                break
            await asyncio.sleep(0.01)
        port = sink._scheduler.ports[0]
        assert len(port.buffer) == 4 and sink_alg.received < emitted - 4
        sink._drop_upstream(peer_id, notify="up")
        await asyncio.sleep(0.05)  # the cancelled receiver unwinds and counts
        lost = sink._lost_messages
        writer.close()
        await sink.stop()
        return emitted, sink_alg.received, lost, port.stats.loss.messages

    emitted, delivered, lost, link_lost = run(scenario())
    assert 3 <= delivered < emitted
    assert emitted == delivered + lost
    assert link_lost == lost  # each counted once, on the link and on the node
