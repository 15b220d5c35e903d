"""Status reporting of losses and buffer levels under stress."""

import pytest

from repro.algorithms.forwarding import CopyForwardAlgorithm, SinkAlgorithm
from repro.core.bandwidth import BandwidthSpec
from repro.sim.engine import EngineConfig
from repro.sim.network import NetworkConfig, SimNetwork

KB = 1000.0


def test_loss_counted_after_downstream_death():
    net = SimNetwork(NetworkConfig(engine=EngineConfig(buffer_capacity=32)))
    src_alg, sink = CopyForwardAlgorithm(), SinkAlgorithm()
    src = net.add_node(src_alg, name="src", bandwidth=BandwidthSpec(up=50 * KB))
    dst = net.add_node(sink, name="dst", bandwidth=BandwidthSpec(down=10 * KB))
    src_alg.set_downstreams([dst])
    net.start()
    net.observer.deploy_source(src, app=1, payload_size=5000)
    net.run(10)  # slow receiver: src's buffers fill up
    net.kill_node(dst)
    net.run(5)
    report = net.engine(src)._status_report().fields()
    # The queued/in-flight messages at the moment of death were lost.
    assert report["lost_messages"] > 0


def test_buffer_levels_visible_in_status():
    net = SimNetwork(NetworkConfig(engine=EngineConfig(buffer_capacity=10)))
    src_alg, sink = CopyForwardAlgorithm(), SinkAlgorithm()
    src = net.add_node(src_alg, name="src")
    dst = net.add_node(sink, name="dst", bandwidth=BandwidthSpec(down=5 * KB))
    src_alg.set_downstreams([dst])
    net.start()
    net.observer.deploy_source(src, app=1, payload_size=5000)
    net.run(10)
    # Slow receiver: the source's send buffer to dst sits full.
    levels = net.engine(src).buffer_levels()
    assert levels[f"send:{dst}"] == 10
    report = net.engine(src)._status_report().fields()
    assert report["send_buffers"][str(dst)] == 10


def test_observer_sees_loss_through_status():
    net = SimNetwork(NetworkConfig(engine=EngineConfig(buffer_capacity=32)))
    src_alg, sink = CopyForwardAlgorithm(), SinkAlgorithm()
    src = net.add_node(src_alg, name="src", bandwidth=BandwidthSpec(up=50 * KB))
    dst = net.add_node(sink, name="dst", bandwidth=BandwidthSpec(down=10 * KB))
    src_alg.set_downstreams([dst])
    net.start()
    net.observer.deploy_source(src, app=1, payload_size=5000)
    net.run(10)
    net.kill_node(dst)
    net.run(3)  # next poll cycle collects the post-failure status
    status = net.observer.statuses[src]
    assert status.downstreams == []  # link gone from the report
