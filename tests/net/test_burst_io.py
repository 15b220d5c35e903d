"""Burst-native link I/O: one parser for every chunking, one push per
received chunk and one write per flush, and no frame lost uncounted when
a link goes mid-burst.

The frame sweep (:func:`repro.net.framing.parse_frames`) is shared by the
TCP link protocol and the shm endpoint, so the same chunked streams are
driven through all three: the bare assembler, a ``StreamLink`` over a real
connection, and a ``ShmEndpoint`` over real rings.
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
    MAX_FRAME_PAYLOAD,
    FrameAssembler,
    StreamLink,
    hello_message,
    parse_frames,
    write_batch,
    write_message,
)

from tests.engine_suite.test_shared_semantics import SeqSink
from tests.net.test_shm import RecordingEnd, endpoint_pair
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


async def tcp_link():
    """A ``StreamLink`` on the accepting side of a real connection, and
    the dialing side's writer."""
    accepted = asyncio.get_running_loop().create_future()
    server = await asyncio.start_server(
        lambda reader, writer: accepted.set_result((reader, writer)), "127.0.0.1", 0)
    _, dialer = await asyncio.open_connection(*server.sockets[0].getsockname()[:2])
    link = StreamLink(*await accepted)
    server.close()
    return link, dialer


def through_stream_link(chunks):
    async def scenario():
        link, dialer = await tcp_link()
        end = RecordingEnd()
        link.attach(end)
        for chunk in chunks:
            link.data_received(chunk)  # each chunk as the transport hands it over
            if end.lost is not None:
                break
        link.connection_lost(None)  # the stream ends
        link.close()
        dialer.close()
        return end.frames, end.lost

    return run(scenario())


def through_shm(chunks):
    async def scenario():
        a, b = await endpoint_pair()
        end = RecordingEnd()
        b.attach(end)
        for chunk in chunks:
            assert a._out.write_some(memoryview(chunk)) == len(chunk)
            b._rung()  # one doorbell: one sweep of the ring into the end
            if end.lost is not None:
                break
        a.close()
        await end.wait(lambda e: e.lost is not None)
        b.close()
        return end.frames, end.lost

    return run(scenario())


TRANSPORTS = pytest.mark.parametrize(
    "through", [through_assembler, through_stream_link, through_shm])

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


def test_a_burst_costs_one_read_and_a_single_frame_no_copy():
    async def scenario():
        link, dialer = await tcp_link()
        end = RecordingEnd()
        link.attach(end)
        burst = [frame(seq, b"p" * 100) for seq in range(9)]
        link.data_received(b"".join(burst))  # nine frames, one push
        assert [[msg._raw for msg in pushed] for pushed in end.bursts] == [burst]

        # a paced single frame: one push, and the message keeps the very
        # bytes object handed to data_received (as the HELLO's leftovers
        # are; a socket read lands in the shared buffer and is copied)
        single = frame(9, b"q" * 100)
        link.data_received(single)
        assert len(end.bursts) == 2 and len(end.bursts[1]) == 1
        assert end.bursts[1][0]._raw is single
        link.close()
        dialer.close()

    run(scenario())


def test_reads_share_one_buffer_and_every_frame_owns_its_bytes():
    """Over a real socket every link reads into its thread's one buffer
    (no 256 KiB ``bytes`` per read); what a read pushed, frames and a
    partial tail alike, survives the reads that overwrite the buffer."""

    async def scenario():
        (link, dialer), (other, other_dialer) = await tcp_link(), await tcp_link()
        end = RecordingEnd()
        link.attach(end)
        sent = [frame(seq, bytes([65 + seq]) * 3000) for seq in range(4)]  # 3024 bytes each
        stream = b"".join(sent)
        # cut mid-frame: each read completes 1, then 1, then 2 frames
        for chunk, total in ((stream[:4000], 1), (stream[4000:9000], 2), (stream[9000:], 4)):
            dialer.write(chunk)
            for _ in range(400):
                if len(end.frames) == total:
                    break
                await asyncio.sleep(0.005)
        for closing in (link, other):
            closing.close()
        for closing in (dialer, other_dialer):
            closing.close()
        return link.get_buffer(-1) is other.get_buffer(-1), [msg._raw for msg in end.frames], sent

    shared, received, sent = run(scenario())
    assert shared
    assert received == sent


class CountingController(ChaosController):
    """No faults: wraps each connection to count transport calls."""

    def __init__(self):
        super().__init__()
        self.links = {}

    def wrap(self, local, remote, link):
        counting = self.links[(local, remote)] = _CountingLink(super().wrap(local, remote, link))
        return counting


class _CountingLink:
    """Counts the writes per ``flush`` and the pushes to the link's end."""

    def __init__(self, link):
        self._link = link
        self._end = None
        self.flushes = []  # per flush(): the transport calls made since the last
        self._calls = []
        self.pushes = 0

    def attach(self, end):
        self._end = end
        self._link.attach(self)

    def on_frames(self, frames):
        self.pushes += 1
        self._end.on_frames(frames)

    def on_lost(self, exc):
        self._end.on_lost(exc)

    def on_writable(self):
        self._end.on_writable()

    def write(self, data):
        self._calls.append(("write", 1))
        self._link.write(data)

    def writelines(self, parts):
        self._calls.append(("writelines", len(parts)))
        self._link.writelines(parts)

    def flush(self):
        if self._calls:
            self.flushes.append(self._calls)
            self._calls = []
        return self._link.flush()

    def __getattr__(self, name):
        return getattr(self._link, name)


TICKS, BURST = 20, 6


def test_two_node_chain_one_write_per_flush_one_read_per_burst(monkeypatch):
    reads = []
    data_received = StreamLink.data_received

    def counting_data_received(self, data):
        reads.append(len(data))
        data_received(self, data)

    monkeypatch.setattr(StreamLink, "data_received", counting_data_received)

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
        sent = chaos.links[(src.node_id, sink.node_id)]
        taken = chaos.links[(sink.node_id, src.node_id)]
        await src.stop()
        await sink.stop()
        return sink_alg.received, sent.flushes, taken.pushes

    received, flushes, pushes = run(scenario())
    assert received == TICKS * BURST
    multi = [calls for calls in flushes if calls[0][0] == "writelines"]
    # every multi-frame flush reached the transport as ONE call ...
    assert multi and all(len(calls) == 1 for calls in multi)
    # ... and a lone frame keeps the per-message path (header + payload)
    assert all(calls in ([("write", 1)], [("write", 1)] * 2)
               for calls in flushes if calls[0][0] == "write")
    # 16-byte payloads: every read carries whole frames, so each
    # data_received is one push of a whole burst
    assert len(reads) == pushes < received


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
    """emitted = delivered + lost_messages, with the receiving end holding
    the rest of a burst its full port buffer could not take."""

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
        for _ in range(200):  # until the receiving end holds frames on a full buffer
            ports = sink._scheduler.ports
            if sink_alg.received >= 3 and ports and len(ports[0].buffer) == 4:
                break
            await asyncio.sleep(0.01)
        port = sink._scheduler.ports[0]
        assert len(port.buffer) == 4 and sink_alg.received < emitted - 4
        assert sink._peers[peer_id].held  # the rest of the burst, in hand
        sink._drop_upstream(peer_id, notify="up")  # counts buffer and hand at once
        lost = sink._lost_messages
        writer.close()
        await sink.stop()
        return emitted, sink_alg.received, lost, port.stats.loss.messages

    emitted, delivered, lost, link_lost = run(scenario())
    assert 3 <= delivered < emitted
    assert emitted == delivered + lost
    assert link_lost == lost  # each counted once, on the link and on the node


# --- the hand-off behind the HELLO ----------------------------------------------


def test_a_burst_written_with_the_hello_arrives_whole_and_in_order():
    """The HELLO is read through a stream, the link then runs on its own
    protocol: bytes already buffered behind the HELLO are carried over,
    not lost or reordered."""

    async def scenario():
        sink_alg = SeqSink()
        sink = AsyncioEngine(next_addr(), sink_alg)
        await sink.start()
        peer_id = next_addr()
        _, writer = await asyncio.open_connection(sink.node_id.ip, sink.node_id.port)
        burst = [Message(MsgType.DATA, peer_id, 1, b"h" * 64, seq=seq).pack() for seq in range(20)]
        writer.write(hello_message(peer_id).pack() + b"".join(burst))  # one segment
        await writer.drain()
        for _ in range(200):
            if sink_alg.received == 20:
                break
            await asyncio.sleep(0.01)
        writer.close()
        await sink.stop()
        return sink_alg.seqs

    assert run(scenario()) == list(range(20))
