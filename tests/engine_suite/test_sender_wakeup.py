"""A link's sending end that has gone idle is woken by the next send.

Only an idle sending end listens to its send queue: the first put wakes
it and detaches the listener, and the end attaches it again when it
runs dry.  Every way a run can end must leave the listener attached, or
the next send waits forever.  These tests end runs the ordinary way, on
a throttle timer and after the transport pushed back, then send once
more after the end went idle.
"""

from __future__ import annotations

import sys

from repro.algorithms.forwarding import SinkAlgorithm
from repro.core.algorithm import Algorithm
from repro.core.message import Message
from repro.core.msgtypes import MsgType

APP = 3


def sending_end(engine, dest):
    """The backend's sending end toward ``dest`` (``_SenderLink`` / ``_Peer``)."""
    ends = engine._senders if hasattr(engine, "_senders") else engine._peers
    return ends[dest]


def state_is(end, name: str) -> bool:
    """``end.state`` against its module's ``_IDLE`` / ``_BLOCKED`` constants."""
    return end.state == getattr(sys.modules[type(end).__module__], name)


def listening(engine, dest) -> bool:
    """True while the end is idle and its send queue's listener is its own."""
    end = sending_end(engine, dest)
    return state_is(end, "_IDLE") and engine._out[dest].queue.on_size_change == end._on_size_change


def send(source, dest, seq: int, size: int) -> None:
    source.send(Message(MsgType.DATA, source.node_id, APP, b"x" * size, seq=seq), dest.node_id)


def wait_until(cluster, condition, what: str, step: float = 0.01, limit: int = 500) -> None:
    for _ in range(limit):
        if condition():
            return
        cluster.settle(step)
    assert condition(), f"{cluster.backend}: {what} never held"


def pair(cluster, up: float | None = None, **sink_caps):
    """A plain node ``a`` (sending at most ``up`` B/s) linked to a counting sink ``b``."""
    a = cluster.add_node(Algorithm(), up=up)
    sink = SinkAlgorithm()
    b = cluster.add_node(sink, **sink_caps)
    cluster.start()
    cluster.connect(a, b)
    cluster.settle(0.05)
    return a, b, sink


def one_more_send_is_delivered(cluster, a, b, sink) -> None:
    """Let the end sit idle, then send once: it must arrive."""
    wait_until(cluster, lambda: listening(a, b.node_id), "the idle end listens")
    cluster.settle(0.1)
    before = sink.received
    send(a, b, seq=10_000, size=100)
    wait_until(cluster, lambda: sink.received == before + 1, "the later send arrived")


def test_an_idle_end_wakes_for_one_later_send(cluster):
    a, b, sink = pair(cluster)
    send(a, b, seq=0, size=100)
    wait_until(cluster, lambda: sink.received == 1, "the first send arrived")
    one_more_send_is_delivered(cluster, a, b, sink)
    one_more_send_is_delivered(cluster, a, b, sink)


def test_an_end_idle_after_a_throttle_timer_run_wakes_for_a_later_send(cluster):
    # 10 x ~1 kB at 20 kB/s: every message after the first waits out
    # the send throttle, so the run that empties the queue is a timer's
    a, b, sink = pair(cluster, up=20_000)
    for seq in range(10):
        send(a, b, seq=seq, size=1000)
    wait_until(cluster, lambda: 0 < sink.received < 10, "the throttle held some back")
    assert not listening(a, b.node_id)
    wait_until(cluster, lambda: sink.received == 10, "the throttled run arrived")
    one_more_send_is_delivered(cluster, a, b, sink)


def test_an_end_idle_after_its_transport_pushed_back_wakes_for_a_later_send(cluster):
    # a slow receiver (40 kB/s, 4-message buffers) stops reading, so the
    # link fills and the sending end blocks until it takes more
    a, b, sink = pair(cluster, down=40_000, capacity=4)
    for seq in range(200):  # two bursts: the second finds the link full
        send(a, b, seq=seq, size=200)
        if seq == 99:
            cluster.settle(0.01)
    end = sending_end(a, b.node_id)
    wait_until(cluster, lambda: state_is(end, "_BLOCKED"), "the transport pushed back")
    wait_until(cluster, lambda: sink.received == 200, "the blocked run arrived")
    one_more_send_is_delivered(cluster, a, b, sink)
