"""Unit tests for SimLink semantics (flow control, break, stall).

The link is a bounded in-flight window whose two ends are callbacks;
the behaviours below are driven through ``push``/``take`` and the
``on_push``/``on_take`` notifications, and (for the sender-side rules
a pump enforces) through a two-node :class:`SimNetwork`.
"""

import pytest

from repro.algorithms.forwarding import CopyForwardAlgorithm, SinkAlgorithm
from repro.core.algorithm import Algorithm
from repro.core.ids import NodeId
from repro.core.message import Message
from repro.core.msgtypes import MsgType
from repro.errors import LinkDownError
from repro.sim.network import NetworkConfig, SimNetwork
from repro.sim.link import SimLink

A = NodeId("10.0.0.1", 7000)
B = NodeId("10.0.0.2", 7000)


def make_msg(i=0):
    return Message(MsgType.DATA, A, 1, b"x" * 100, seq=i)


def observed(link):
    """Record every notification each end of ``link`` receives."""
    calls = []
    link.on_push = lambda: calls.append("push")
    link.on_take = lambda: calls.append("take")
    return calls


def test_deliver_and_receive_with_latency():
    link = SimLink(A, B, latency=0.5)
    calls = observed(link)
    link.push(make_msg(1), sent_at=2.0)
    assert calls == ["push"] and len(link.window) == 1
    msg, sent_at = link.take()
    assert msg.seq == 1
    assert sent_at == 2.0  # the receiving end applies the latency itself
    assert calls == ["push", "take"]


def test_socket_buffer_blocks_sender():
    link = SimLink(A, B, latency=0.1, socket_buffer=2)
    calls = observed(link)
    link.push(make_msg(0), 0.0)
    assert not link.full
    link.push(make_msg(1), 0.0)
    assert link.full  # a sender holds its next message until a take
    assert [link.take()[0].seq for _ in range(2)] == [0, 1]  # FIFO
    assert calls == ["push", "push", "take", "take"]
    assert not link.full


def test_break_fails_sender_and_receiver():
    link = SimLink(A, B, latency=0.1, socket_buffer=1)
    link.push(make_msg(0), 0.0)
    calls = observed(link)
    link.break_()
    assert link.alive is False
    assert calls == ["push", "take"]  # both ends hear it, receiving end first
    link.break_()
    assert calls == ["push", "take"]  # once
    assert link.take()[0].seq == 0  # what was in flight can still arrive


def test_deliver_on_broken_link_raises_immediately():
    link = SimLink(A, B)
    calls = observed(link)
    link.break_()
    with pytest.raises(LinkDownError):
        link.push(make_msg(), 0.0)
    assert not link.window
    assert calls == ["push", "take"]  # the break only


def test_stalled_link_blocks_forever_silently():
    net = SimNetwork()
    src_alg, sink = CopyForwardAlgorithm(), SinkAlgorithm()
    src, dst = net.add_node(src_alg), net.add_node(sink)
    src_alg.set_downstreams([dst])
    net.start()
    net.engine(src).start_source(app=1, payload_size=100)
    net.run(1.0)
    sender = net.engine(src)._senders[dst]
    sender.link.stall()
    net.run(1.0)  # what was already in flight drains
    received = sink.received
    net.run(100.0)
    assert sink.received == received  # nothing more crosses
    assert sender.link.stalled and sender.link.alive
    assert sender.in_flight_since is not None  # the pump parked mid-delivery
    assert dst in net.engine(src).downstreams()  # nobody raised an error
    assert net.engine(src)._lost_messages == 0


def test_negative_latency_rejected():
    with pytest.raises(ValueError):
        SimLink(A, B, latency=-1.0)
    with pytest.raises(ValueError):
        SimLink(A, B, socket_buffer=0)


class ArrivalLog(Algorithm):
    """Records the virtual time each data message reaches the algorithm."""

    def __init__(self):
        super().__init__()
        self.arrivals = []

    def process(self, msg):
        if msg.type == MsgType.DATA:
            self.arrivals.append((msg.seq, self.engine.now()))


def test_window_wait_counts_toward_propagation_latency():
    """``sent_at`` is stamped when a delivery starts, before a full
    window makes it wait: the wait is part of the message's latency.

    With a one-message socket buffer the receiving end holds #0 while
    #1 fills the window, so #2 waits for a slot from t0 to t0 + L.  Its
    stamp stays t0, so all three arrive at t0 + L; stamping at insertion
    would delay #2 to t0 + 2L."""
    latency = 0.05
    net = SimNetwork(NetworkConfig(default_latency=latency, socket_buffer=1))
    log = ArrivalLog()
    src, dst = net.add_node(SinkAlgorithm()), net.add_node(log)
    net.start()
    net.run(1.0)
    engine, t0 = net.engine(src), net.now
    for seq in range(3):
        engine.send(Message(MsgType.DATA, src, 1, b"x" * 10, seq=seq), dst)
    net.run(1.0)
    assert [seq for seq, _ in log.arrivals] == [0, 1, 2]
    assert [at for _, at in log.arrivals] == [t0 + latency] * 3
    assert net.engine(src)._senders[dst].link.backpressure_events == 1
