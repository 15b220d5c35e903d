"""Focused engine-behaviour tests: hold, zero copy, weights, timers, status."""

import pytest

from repro.algorithms.forwarding import CopyForwardAlgorithm, SinkAlgorithm
from repro.core.algorithm import Algorithm, Disposition
from repro.core.bandwidth import BandwidthSpec
from repro.core.message import Message
from repro.core.msgtypes import MsgType
from repro.sim.engine import EngineConfig
from repro.sim.network import NetworkConfig, SimNetwork

KB = 1000.0


def test_zero_copy_forwarding_preserves_object_identity():
    """A relayed data message is the same object end to end (no deep copy)."""
    seen_at_relay = []
    seen_at_sink = []

    class IdentityRelay(Algorithm):
        def on_data(self, msg):
            seen_at_relay.append(msg)
            self.send(msg, self._next)
            return Disposition.DONE

    class IdentitySink(Algorithm):
        def on_data(self, msg):
            seen_at_sink.append(msg)
            return Disposition.DONE

    net = SimNetwork()
    relay, sink = IdentityRelay(), IdentitySink()
    n_relay = net.add_node(relay, name="r", bandwidth=BandwidthSpec(up=100 * KB))
    n_sink = net.add_node(sink, name="s")
    relay._next = n_sink
    net.start()
    net.observer.deploy_source(n_relay, app=1, payload_size=1000)
    net.run(3)
    assert seen_at_relay and seen_at_sink
    # Same Python objects flowed through relay and sink buffers.
    assert seen_at_relay[0] is seen_at_sink[0]


def test_hold_disposition_keeps_message_in_algorithm():
    held_messages = []

    class Holder(Algorithm):
        def on_data(self, msg):
            held_messages.append(msg)
            return Disposition.HOLD

    net = SimNetwork()
    src_alg = CopyForwardAlgorithm()
    holder = Holder()
    src = net.add_node(src_alg, name="src", bandwidth=BandwidthSpec(up=50 * KB))
    dst = net.add_node(holder, name="holder")
    src_alg.set_downstreams([dst])
    net.start()
    net.observer.deploy_source(src, app=1, payload_size=5000)
    net.run(5)
    assert len(held_messages) > 10
    port = net.engine(dst)._scheduler.ports[0]
    assert port.held == len(held_messages)


def test_engine_timer_fires_once_at_requested_delay():
    fired = []

    class TimerAlg(SinkAlgorithm):
        def on_start(self):
            self.engine.set_timer(2.5, token=9)

        def on_timer(self, token):
            fired.append((self.engine.now(), token))
            return Disposition.DONE

    net = SimNetwork()
    net.add_node(TimerAlg(), name="t")
    net.start()
    net.run(10)
    assert len(fired) == 1
    when, token = fired[0]
    assert token == 9
    assert when == pytest.approx(2.5, abs=0.1)


def test_status_report_contents():
    net = SimNetwork()
    src_alg, sink = CopyForwardAlgorithm(), SinkAlgorithm()
    src = net.add_node(src_alg, name="src", bandwidth=BandwidthSpec(up=100 * KB))
    dst = net.add_node(sink, name="dst")
    src_alg.set_downstreams([dst])
    net.start()
    net.observer.deploy_source(src, app=3, payload_size=5000)
    net.run(5)
    report = net.engine(src)._status_report().fields()
    assert report["node"] == str(src)
    assert str(dst) in report["downstreams"]
    assert report["apps"] == [3]
    assert str(dst) in report["send_rates"]
    sink_report = net.engine(dst)._status_report().fields()
    assert str(src) in sink_report["upstreams"]
    assert sink_report["recv_rates"][str(src)] > 0


def test_send_to_self_loops_back_through_control():
    received = []

    class SelfTalker(SinkAlgorithm):
        def on_start(self):
            self.send(Message(MsgType.GOSSIP, self.node_id, 0, b"note to self"),
                      self.node_id)

        def on_unhandled(self, msg):
            received.append(msg.payload)
            return Disposition.DONE

    class SelfGossip(SelfTalker):
        pass

    net = SimNetwork()
    alg = SelfGossip()
    alg.register(MsgType.GOSSIP, alg.on_unhandled)
    net.add_node(alg, name="solo")
    net.start()
    net.run(1)
    assert received == [b"note to self"]


def test_send_to_unknown_destination_reports_broken_link():
    from repro.core.ids import NodeId

    broken = []

    class Reporter(SinkAlgorithm):
        def on_start(self):
            self.send(Message(MsgType.DATA, self.node_id, 1, b"x"),
                      NodeId("10.9.9.9", 1))

        def on_broken_link(self, msg):
            broken.append(msg.fields()["peer"])
            return Disposition.DONE

    net = SimNetwork()
    net.add_node(Reporter(), name="rep")
    net.start()
    net.run(1)
    assert broken == ["10.9.9.9:1"]


def test_duplicate_start_rejected():
    net = SimNetwork()
    node = net.add_node(SinkAlgorithm(), name="x")
    net.start()
    with pytest.raises(RuntimeError):
        net.engine(node).start()


def test_weights_validated_through_engine():
    net = SimNetwork()
    a_alg, b_alg = CopyForwardAlgorithm(), SinkAlgorithm()
    a = net.add_node(a_alg, name="a")
    b = net.add_node(b_alg, name="b")
    a_alg.set_downstreams([b])
    net.start()
    net.observer.deploy_source(a, app=1, payload_size=1000)
    net.run(2)
    engine_b = net.engine(b)
    engine_b.set_port_weight(a, 4)
    assert engine_b._scheduler.get_port(a).weight == 4
    with pytest.raises(ValueError):
        engine_b.set_port_weight(a, 0)


def test_source_interval_caps_unthrottled_production():
    net = SimNetwork(NetworkConfig(engine=EngineConfig(source_interval=0.1)))
    src_alg, sink = CopyForwardAlgorithm(), SinkAlgorithm()
    src = net.add_node(src_alg, name="s")
    dst = net.add_node(sink, name="d")
    src_alg.set_downstreams([dst])
    net.start()
    net.observer.deploy_source(src, app=1, payload_size=100)
    net.run(10)
    # 0.1 s pacing => at most ~100 messages in 10 s.
    assert sink.received <= 101


def test_on_demand_measurement_returns_rtt_and_rate():
    replies = []

    class Prober(SinkAlgorithm):
        def on_measure_reply(self, peer, rtt, send_rate):
            replies.append((peer, rtt, send_rate))
            return Disposition.DONE

    net = SimNetwork(NetworkConfig(default_latency=0.020))
    prober = Prober()
    a = net.add_node(prober, name="a")
    b = net.add_node(SinkAlgorithm(), name="b")
    net.start()
    net.run(1)
    net.engine(a).measure(b)
    net.run(2)
    assert len(replies) == 1
    peer, rtt, _ = replies[0]
    assert peer == b
    # RTT is at least two one-way latencies of 20 ms.
    assert 0.04 <= rtt < 0.2


def test_terminate_leaves_no_tracked_task():
    """The core's task set holds only unfinished tasks, ``terminate()``
    empties it in one call, and the kernel is left with no live task of
    that node (asyncio twin: ``tests/net/test_resilience.py``)."""
    net = SimNetwork()
    src_alg = CopyForwardAlgorithm()
    src, sink = net.add_node(src_alg), net.add_node(SinkAlgorithm())
    src_alg.set_downstreams([sink])
    net.start()
    engine = net.engine(src)
    engine.start_source(app=1, payload_size=100)
    net.run(1.0)
    engine.stop_source(1)
    engine.disconnect(sink)  # the link's sending end goes with its table entry
    net.run(0.1)
    assert engine._tasks and all(not task.finished for task in engine._tasks)
    assert sink not in engine._senders
    assert not any("source-" in task.name for task in engine._tasks)
    engine.terminate()
    assert engine._tasks == {}
    net.run(0.1)
    assert not [t for t in net.kernel.live_tasks if t.name.startswith(f"{src}/")]


def test_superseded_link_counts_the_message_in_hand():
    """A re-dial supersedes the peer's previous link while its receiver
    task still holds a message in latency: that message, and the ones
    still in the old link's socket buffer behind it, die with the old
    link and are counted, not silently dropped."""
    net = SimNetwork(NetworkConfig(default_latency=0.05))
    src_alg = CopyForwardAlgorithm()
    src, sink = net.add_node(src_alg), net.add_node(SinkAlgorithm())
    src_alg.set_downstreams([sink])
    net.start()
    sender, receiver = net.engine(src), net.engine(sink)
    sender.start_source(app=1, payload_size=100)
    net.run(1.0)
    sender.stop_source(1)
    old_link = receiver._upstream_links[src]
    sender.disconnect(sink)
    sender.connect(sink)  # before the old receiver task has noticed
    assert receiver._upstream_links[src] is not old_link
    assert receiver._lost_messages == 0  # the sink's buffer was empty
    on_the_wire = len(old_link.window)
    assert on_the_wire == net.config.socket_buffer  # 50 ms of latency keeps it full
    net.run(0.2)
    assert receiver._lost_messages == 1 + on_the_wire
    assert receiver._status_report().fields()["lost_messages"] == 1 + on_the_wire


@pytest.mark.parametrize("watchdog", [False, True])
def test_engine_tasks_do_not_grow_with_links(watchdog):
    """A SimEngine's live kernel tasks are its report and bootstrap
    loops (plus the watchdog when configured) whatever its link count:
    a link's two ends are callbacks, not tasks, and so is the engine's
    wake-up."""
    config = EngineConfig(inactivity_timeout=5.0 if watchdog else None)
    net = SimNetwork(NetworkConfig(engine=config))
    hub_alg = CopyForwardAlgorithm()
    hub = net.add_node(hub_alg, name="hub")
    feeds = [CopyForwardAlgorithm() for _ in range(3)]
    feeders = [net.add_node(alg) for alg in feeds]
    sinks = [net.add_node(SinkAlgorithm()) for _ in range(4)]
    hub_alg.set_downstreams(sinks)
    for alg in feeds:
        alg.set_downstreams([hub])
    net.start()
    for app, feeder in enumerate(feeders, start=1):
        net.engine(feeder).start_source(app=app, payload_size=100)
    net.run(2.0)
    engine = net.engine(hub)
    assert len(engine.upstreams()) == 3 and len(engine.downstreams()) == 4
    expected = {f"{hub}/report", f"{hub}/boot"}
    if watchdog:
        expected.add(f"{hub}/watchdog")
    live = {t.name for t in net.kernel.live_tasks if t.name.startswith(f"{hub}/")}
    assert live == expected
    assert {task.name for task in engine._tasks} == expected
