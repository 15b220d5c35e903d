"""Tests for the simulator's failure injection helpers."""

import pytest

from repro.algorithms.forwarding import CopyForwardAlgorithm, SinkAlgorithm
from repro.core.bandwidth import BandwidthSpec
from repro.errors import UnknownNodeError
from repro.sim.engine import EngineConfig
from repro.sim.failure import FailureSchedule
from repro.sim.network import NetworkConfig, SimNetwork

KB = 1000.0


def build_chain(inactivity=None):
    net = SimNetwork(NetworkConfig(engine=EngineConfig(
        buffer_capacity=16, inactivity_timeout=inactivity)))
    a_alg, b_alg, sink = CopyForwardAlgorithm(), CopyForwardAlgorithm(), SinkAlgorithm()
    a = net.add_node(a_alg, name="A", bandwidth=BandwidthSpec(up=100 * KB))
    b = net.add_node(b_alg, name="B")
    c = net.add_node(sink, name="C")
    a_alg.set_downstreams([b])
    b_alg.set_downstreams([c])
    net.start()
    net.observer.deploy_source(a, app=1, payload_size=5000)
    return net, (a, b, c), (a_alg, b_alg, sink)


def test_kill_node_stops_traffic_downstream():
    net, (a, b, c), (_, _, sink) = build_chain()
    net.run(5)
    before = sink.received
    assert before > 0
    net.kill_node("B")
    net.run(10)
    settled = sink.received
    net.run(5)
    assert sink.received == settled


def test_cut_link_detected_by_both_sides():
    net, (a, b, c), (a_alg, _, _) = build_chain()
    net.run(5)
    net.cut_link("A", "B")
    net.run(5)
    assert b not in net.engine(a).downstreams()
    assert a not in net.engine(b).upstreams()
    assert b not in a_alg.downstream_targets


def test_cut_unknown_link_raises():
    net, _, _ = build_chain()
    net.run(2)
    with pytest.raises(UnknownNodeError):
        net.cut_link("C", "A")


def test_stall_link_only_caught_with_inactivity_detection():
    # Without a watchdog the stalled link lingers forever.
    net, (a, b, _), _ = build_chain(inactivity=None)
    net.run(5)
    net.stall_link("A", "B")
    net.run(30)
    assert b in net.engine(a).downstreams()  # nobody noticed

    # With the watchdog both endpoints clean up.
    net, (a, b, _), _ = build_chain(inactivity=4.0)
    net.run(5)
    net.stall_link("A", "B")
    net.run(30)
    assert b not in net.engine(a).downstreams()
    assert a not in net.engine(b).upstreams()


def test_failure_schedule_fires_in_order():
    net, (a, b, c), (_, _, sink) = build_chain()
    schedule = FailureSchedule()
    schedule.kill_source(6.0, "A", app=1).kill_node(12.0, "B")
    schedule.arm(net)
    net.run(5)
    assert net.engine(a)._sources  # still producing
    net.run(3)
    assert not net.engine(a)._sources  # source killed at t=6
    assert net.engine(b).running
    net.run(5)
    assert not net.engine(b).running  # node killed at t=12


def test_failure_schedule_tolerates_races():
    net, (a, b, c), _ = build_chain()
    schedule = FailureSchedule()
    schedule.kill_node(5.0, "B")
    schedule.cut_link(6.0, "A", "B")  # the link is already gone by then
    schedule.arm(net)
    net.run(10)  # must not raise
    assert not net.engine(b).running

