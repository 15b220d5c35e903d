"""Engine semantics that must behave identically on both backends.

These tests run twice — once against :class:`SimEngine`, once against
:class:`AsyncioEngine` (see ``conftest.py``) — and only touch the API
surface :class:`~repro.core.engine_core.EngineCore` defines.  Before
the shared core existed, several of these behaviours (graceful
``disconnect``, loss counters in status reports, broken-source
broadcast) only worked on one backend.
"""

from __future__ import annotations

from collections import Counter

from repro.algorithms.forwarding import CopyForwardAlgorithm, SinkAlgorithm
from repro.core.algorithm import Disposition
from repro.core.ids import CONTROL_APP, NodeId
from repro.core.message import Message
from repro.core.msgtypes import MsgType

APP = 7


class RecordingSink(SinkAlgorithm):
    """Sink that records engine notifications for assertions."""

    def __init__(self) -> None:
        super().__init__()
        self.broken_links: list[dict] = []
        self.broken_sources: list[int] = []
        self.measure_replies: list[tuple[NodeId, float, float]] = []

    def on_broken_link(self, msg):
        self.broken_links.append(msg.fields())
        return super().on_broken_link(msg)

    def on_broken_source(self, msg):
        self.broken_sources.append(msg.app)
        return super().on_broken_source(msg)

    def on_measure_reply(self, peer, rtt, send_rate):
        self.measure_replies.append((peer, rtt, send_rate))
        return Disposition.DONE


class AppCountingSink(SinkAlgorithm):
    """Counts data messages per application."""

    def __init__(self) -> None:
        super().__init__()
        self.by_app: Counter[int] = Counter()

    def on_data(self, msg):
        self.by_app[msg.app] += 1
        return super().on_data(msg)


class HoldingSink(SinkAlgorithm):
    """Keeps every data message (coding-style HOLD disposition)."""

    def __init__(self) -> None:
        super().__init__()
        self.held_msgs = []

    def on_data(self, msg):
        self.received += 1
        self.held_msgs.append(msg)
        return Disposition.HOLD


def test_chain_delivery(cluster):
    """Source -> relay -> sink moves data end to end."""
    a_alg, b_alg, c_alg = CopyForwardAlgorithm(), CopyForwardAlgorithm(), SinkAlgorithm()
    a, b, c = (cluster.add_node(alg) for alg in (a_alg, b_alg, c_alg))
    cluster.start()
    a_alg.set_downstreams([b.node_id])
    b_alg.set_downstreams([c.node_id])
    cluster.connect(a, b)
    cluster.connect(b, c)
    a.start_source(app=APP, payload_size=1000)
    cluster.settle(0.6)
    assert b_alg.received > 0
    assert c_alg.received > 0


def test_status_report_surface(cluster):
    """Both backends report the same status fields to the observer."""
    src_alg, sink_alg = CopyForwardAlgorithm(), SinkAlgorithm()
    src, sink = cluster.add_node(src_alg), cluster.add_node(sink_alg)
    cluster.start()
    src_alg.set_downstreams([sink.node_id])
    cluster.connect(src, sink)
    src.start_source(app=APP, payload_size=500)
    cluster.settle(0.4)
    for engine in (src, sink):
        fields = engine._status_report().fields()
        assert set(fields) == {
            "node", "upstreams", "downstreams", "recv_buffers", "send_buffers",
            "recv_rates", "send_rates", "lost_messages", "lost_bytes", "apps",
            "queues",
        }, f"status surface diverged on {cluster.backend}"
        queues = fields["queues"]
        assert set(queues) == {"recv", "send", "total_messages", "total_bytes"}
        for depth_bytes in queues["recv"].values():
            depth, nbytes = depth_bytes
            assert depth >= 0 and nbytes >= 0
    assert str(sink.node_id) in src._status_report().fields()["downstreams"]
    assert APP in src._status_report().fields()["apps"]
    # the relay learned the app from traffic, not from deployment
    assert APP in sink._status_report().fields()["apps"]


def test_graceful_disconnect_is_locally_silent(cluster):
    """disconnect() removes the link without a local BROKEN_LINK.

    Historically sim-only; now EngineCore guarantees it on both backends.
    """
    src_alg, sink_alg = RecordingSink(), SinkAlgorithm()
    src, sink = cluster.add_node(src_alg), cluster.add_node(sink_alg)
    cluster.start()
    src_alg.set_downstreams([sink.node_id])
    cluster.connect(src, sink)
    src.start_source(app=APP, payload_size=500)
    cluster.settle(0.3)
    assert sink.node_id in src.downstreams()
    src.stop_source(APP)
    cluster.settle(0.1)
    src.disconnect(sink.node_id)
    cluster.settle(0.2)
    assert sink.node_id not in src.downstreams()
    assert src_alg.broken_links == [], (
        f"{cluster.backend} raised BROKEN_LINK on graceful disconnect"
    )


def test_connect_to_itself_is_refused_and_self_sends_stay_local(cluster):
    """A node never holds a link to itself.

    So a CONNECT naming the node creates no table entry and dials
    nothing, and ``send`` to the node's own id (which it tests only on
    a table miss) still lands on the publicized port.
    """
    alg = RecordingSink()
    node = cluster.add_node(alg)
    cluster.start()
    dials = []
    node._open_link = dials.append
    node._enqueue_notification(Message.with_fields(
        MsgType.CONNECT, node.node_id, CONTROL_APP, dest=str(node.node_id)))
    cluster.settle(0.05)
    assert node.downstreams() == [] and dials == []
    seen = []
    alg.register(MsgType.CONTROL, seen.append)
    node.send(Message.with_fields(MsgType.CONTROL, node.node_id, CONTROL_APP), node.node_id)
    cluster.settle(0.05)
    assert len(seen) == 1 and node.downstreams() == [] and dials == []


def test_stop_source_broadcasts_broken_source(cluster):
    src_alg, sink_alg = CopyForwardAlgorithm(), RecordingSink()
    src, sink = cluster.add_node(src_alg), cluster.add_node(sink_alg)
    cluster.start()
    src_alg.set_downstreams([sink.node_id])
    cluster.connect(src, sink)
    src.start_source(app=APP, payload_size=500)
    cluster.settle(0.3)
    assert sink_alg.received > 0
    src.stop_source(APP)
    cluster.settle(0.3)
    assert APP in sink_alg.broken_sources


def test_hold_disposition_counts_on_the_port(cluster):
    """HOLD keeps messages with the algorithm and is visible per-port."""
    src_alg, hold_alg = CopyForwardAlgorithm(), HoldingSink()
    src, holder = cluster.add_node(src_alg), cluster.add_node(hold_alg)
    cluster.start()
    src_alg.set_downstreams([holder.node_id])
    cluster.connect(src, holder)
    src.start_source(app=APP, payload_size=200)
    cluster.settle(0.4)
    assert hold_alg.received > 0
    assert len(hold_alg.held_msgs) == hold_alg.received
    held_total = sum(port.held for port in holder._scheduler.ports_view())
    assert held_total == hold_alg.received


def test_measure_round_trip(cluster):
    """measure() produces MEASURE_REPLY with the probed peer and an RTT."""
    probe_alg, echo_alg = RecordingSink(), SinkAlgorithm()
    prober, echoer = cluster.add_node(probe_alg), cluster.add_node(echo_alg)
    cluster.start()
    cluster.connect(prober, echoer)
    prober.measure(echoer.node_id)
    cluster.settle(0.3)
    assert len(probe_alg.measure_replies) == 1
    peer, rtt, send_rate = probe_alg.measure_replies[0]
    assert peer == echoer.node_id
    assert rtt >= 0.0
    assert send_rate >= 0.0


def test_measure_records_the_link_srtt(cluster):
    """The RTT of a measure() reply feeds the link's smoothed RTT."""
    prober, echoer = cluster.add_node(RecordingSink()), cluster.add_node(SinkAlgorithm())
    cluster.start()
    cluster.connect(prober, echoer)
    assert prober.link_stats(echoer.node_id).srtt is None
    prober.measure(echoer.node_id)
    cluster.settle(0.3)
    srtt = prober.link_stats(echoer.node_id).srtt
    assert isinstance(srtt, float) and srtt > 0.0


class SeqSink(SinkAlgorithm):
    """Sink that records the sequence number of every data message."""

    def __init__(self) -> None:
        super().__init__()
        self.seqs: list[int] = []

    def on_data(self, msg):
        self.seqs.append(msg.seq)
        return super().on_data(msg)


def _lost_messages(engine) -> int:
    return engine._status_report().fields()["lost_messages"]


def test_lazy_dial_delivers_in_order_without_loss(cluster):
    """Messages sent while a link is still being dialed keep their order.

    The relay is never told to connect: its first forward opens the
    link, and everything it forwards meanwhile must stage behind that
    first message instead of overtaking it once the transport is up.
    """
    src_alg, relay_alg, sink_alg = CopyForwardAlgorithm(), CopyForwardAlgorithm(), SeqSink()
    src, relay, sink = (cluster.add_node(alg) for alg in (src_alg, relay_alg, sink_alg))
    cluster.start()
    src_alg.set_downstreams([relay.node_id])
    relay_alg.set_downstreams([sink.node_id])
    cluster.connect(src, relay)
    src.start_source(app=APP, payload_size=200)
    cluster.settle(0.5)
    src.stop_source(APP)
    cluster.settle(0.3)  # drain
    assert len(sink_alg.seqs) > 100
    assert sink_alg.seqs == list(range(len(sink_alg.seqs))), (
        f"{cluster.backend} reordered or dropped across the lazy dial"
    )
    assert len(sink_alg.seqs) == relay_alg.received
    assert [_lost_messages(engine) for engine in (src, relay, sink)] == [0, 0, 0]


def test_disconnect_under_live_source_wakes_it(cluster):
    """disconnect() frees a source parked on the link's full send queue.

    The uplink cap keeps the send queue full, so the source is blocked
    on flow control when its only downstream is disconnected.  It must
    wake, drop the obligation (counted lost with the rest of the queue)
    and carry on — its next send re-dials the sink.
    """
    src_alg, sink_alg = RecordingSink(), SinkAlgorithm()
    src, sink = cluster.add_node(src_alg, up=50_000.0), cluster.add_node(sink_alg)
    cluster.start()
    src_alg.set_downstreams([sink.node_id])
    cluster.connect(src, sink)
    src.start_source(app=APP, payload_size=1000)
    cluster.settle(0.5)
    queued = src.queue_snapshot()["send"][str(sink.node_id)]
    assert queued >= src.config.buffer_capacity  # the source is flow-controlled
    src.disconnect(sink.node_id)
    assert src_alg.broken_links == []
    assert _lost_messages(src) >= queued
    cluster.settle(0.2)  # whatever was on the wire lands
    before = sink_alg.received
    cluster.settle(1.0)
    assert sink_alg.received >= before + 10, (
        f"{cluster.backend} source stayed parked after disconnect"
    )
    assert sink.node_id in src.downstreams()


def test_dead_upstream_receive_buffer_is_counted_lost(cluster):
    """What a dead upstream's receiver buffer still held is counted lost.

    The relay's uplink is frozen (one message takes ~1000 s), so once
    its send queue is full nothing leaves its receiver buffer; the
    source trickles in at 100 msg/s and is killed while that buffer is
    partly full.  The buffer is discarded with the port, and the STATUS
    report has to account for every message in it.
    """
    src_alg, relay_alg, sink_alg = CopyForwardAlgorithm(), CopyForwardAlgorithm(), SinkAlgorithm()
    src = cluster.add_node(src_alg, up=100_000.0)
    relay = cluster.add_node(relay_alg, up=1.0)
    sink = cluster.add_node(sink_alg)
    cluster.start()
    src_alg.set_downstreams([relay.node_id])
    relay_alg.set_downstreams([sink.node_id])
    cluster.connect(src, relay)
    cluster.connect(relay, sink)
    src.start_source(app=APP, payload_size=1000)

    def buffered() -> int:
        return relay.queue_snapshot()["recv"][str(src.node_id)][0]

    for _ in range(100):
        cluster.settle(0.05)
        if buffered() >= 8:
            break
    held = buffered()
    assert 8 <= held < relay.config.buffer_capacity
    assert _lost_messages(relay) == 0
    cluster.kill(src)
    cluster.settle(0.5)
    assert src.node_id not in relay.upstreams()
    # whatever was still on the wire at the kill lands in the buffer first
    assert held <= _lost_messages(relay) <= held + 8, (
        f"{cluster.backend} discarded a receiver buffer without counting it"
    )


def test_dropping_a_destination_counts_what_a_port_and_a_source_owed_it(cluster):
    """A relay port and the relay's own source each wait on the full send
    queue toward the sink when that link is dropped: the queue and both
    owed copies are counted lost, and no port is left blocked."""
    up_alg, relay_alg = CopyForwardAlgorithm(), CopyForwardAlgorithm()
    upstream, relay = cluster.add_node(up_alg), cluster.add_node(relay_alg)
    sink = cluster.add_node(SinkAlgorithm(), down=100_000.0)
    cluster.start()
    up_alg.set_downstreams([relay.node_id])
    relay_alg.set_downstreams([sink.node_id])
    cluster.connect(upstream, relay)
    cluster.connect(relay, sink)
    upstream.start_source(app=APP, payload_size=500)
    relay.start_source(app=APP + 1, payload_size=500)

    def both_owe() -> bool:
        source_owes = any(
            f.remaining for _, pending in relay._sources.values() for f in pending
        )
        return source_owes and relay._scheduler.pending_ports() > 0

    for _ in range(100):
        cluster.settle(0.05)
        if both_owe():
            break
    assert both_owe()
    queued = relay.queue_snapshot()["send"][str(sink.node_id)]
    # A DES sender blocked on its window holds one message off the queue;
    # that one is lost with the link too.
    sender = getattr(relay, "_senders", {}).get(sink.node_id)
    in_hand = int(sender is not None and sender.msg is not None)
    lost = _lost_messages(relay)
    relay.disconnect(sink.node_id)
    assert _lost_messages(relay) == lost + queued + in_hand + 2
    assert relay._scheduler.pending_ports() == 0


def test_two_sources_on_one_node_each_keep_their_pending_forwards(cluster):
    """Two sources parked on one capped uplink each wait on their own
    owed forwards: neither clobbers the other's, both apps reach the
    sink, and the node keeps running."""
    src_alg, sink_alg = CopyForwardAlgorithm(), AppCountingSink()
    src, sink = cluster.add_node(src_alg, up=50_000.0), cluster.add_node(sink_alg)
    cluster.start()
    src_alg.set_downstreams([sink.node_id])
    cluster.connect(src, sink)
    src.start_source(app=1, payload_size=1000)
    src.start_source(app=2, payload_size=1000)
    cluster.settle(3.0)
    assert src.running, f"{cluster.backend} node died under two sources"
    assert sink_alg.by_app[1] > 0 and sink_alg.by_app[2] > 0, sink_alg.by_app
