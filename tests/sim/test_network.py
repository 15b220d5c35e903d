"""Unit tests for SimNetwork construction and configuration."""

import pytest

from repro.algorithms.forwarding import SinkAlgorithm
from repro.core.ids import NodeId
from repro.errors import ConfigurationError, UnknownNodeError
from repro.sim.engine import EngineConfig
from repro.sim.network import NetworkConfig, SimNetwork


def test_node_ids_are_unique_and_virtualizable():
    net = SimNetwork()
    ids = [net.add_node(SinkAlgorithm()) for _ in range(300)]
    assert len(set(ids)) == 300
    # All addresses are well-formed ip:port pairs.
    for node in ids:
        assert isinstance(node, NodeId)


def test_explicit_node_id_and_duplicate_rejection():
    net = SimNetwork()
    explicit = NodeId("10.9.9.9", 1234)
    assert net.add_node(SinkAlgorithm(), node_id=explicit) == explicit
    with pytest.raises(ConfigurationError):
        net.add_node(SinkAlgorithm(), node_id=explicit)


def test_named_lookup_and_labels():
    net = SimNetwork()
    node = net.add_node(SinkAlgorithm(), name="alpha")
    assert net["alpha"] == node
    assert net.label(node) == "alpha"
    with pytest.raises(UnknownNodeError):
        net["beta"]
    with pytest.raises(ConfigurationError):
        net.add_node(SinkAlgorithm(), name="alpha")


def test_engine_lookup_by_name_or_id():
    net = SimNetwork()
    node = net.add_node(SinkAlgorithm(), name="x")
    assert net.engine("x") is net.engine(node)
    with pytest.raises(UnknownNodeError):
        net.engine(NodeId("8.8.8.8", 8))


def test_zero_latency_configs_rejected():
    with pytest.raises(ConfigurationError):
        SimNetwork(NetworkConfig(default_latency=0.0))
    net = SimNetwork()
    net.set_latency_model(lambda a, b: 0.0)
    a = net.add_node(SinkAlgorithm(), name="a")
    b = net.add_node(SinkAlgorithm(), name="b")
    with pytest.raises(ConfigurationError):
        net.latency(a, b)


def test_nodes_added_after_start_are_started():
    net = SimNetwork()
    net.add_node(SinkAlgorithm(), name="early")
    net.start()
    net.run(1)
    late = net.add_node(SinkAlgorithm(), name="late")
    assert net.engines[late].running
    net.run(1)
    assert late in net.observer.alive


def test_run_advances_virtual_time_only():
    net = SimNetwork()
    net.add_node(SinkAlgorithm(), name="n")
    assert net.now == 0.0
    net.run(5)
    assert net.now == 5.0
    net.run(2.5)
    assert net.now == 7.5


def test_nodes_inherit_every_engine_template_field():
    """``bootstrap_refresh=None`` in the template means one BOOT per node."""
    net = SimNetwork(NetworkConfig(engine=EngineConfig(bootstrap_refresh=None)))
    for _ in range(2):
        net.add_node(SinkAlgorithm())
    net.run(12.0)
    assert net.observer.boot_count == 2
