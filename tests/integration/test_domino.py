"""The Domino Effect: source/path failures cascade down, and only down."""

import asyncio

from repro.algorithms.forwarding import CopyForwardAlgorithm, SinkAlgorithm
from repro.core.bandwidth import BandwidthSpec
from repro.net.virtual import VirtualHost
from repro.sim.network import SimNetwork

KB = 1000.0


class _RecordingMixin:
    def _init_recording(self):
        self.broken_sources = []
        self.broken_links = []

    def on_broken_source(self, msg):
        self.broken_sources.append(msg.fields().get("app"))
        return super().on_broken_source(msg)

    def on_broken_link(self, msg):
        self.broken_links.append(msg.fields()["peer"])
        return super().on_broken_link(msg)


class RecordingSink(_RecordingMixin, SinkAlgorithm):
    def __init__(self):
        super().__init__()
        self._init_recording()


class RecordingRelay(_RecordingMixin, CopyForwardAlgorithm):
    def __init__(self):
        super().__init__()
        self._init_recording()


def build_deep_chain(length=5):
    """source -> r1 -> r2 -> ... -> sink, all recording failure events."""
    net = SimNetwork()
    algorithms = [RecordingRelay() for _ in range(length - 1)] + [RecordingSink()]
    nodes = []
    for i, algorithm in enumerate(algorithms):
        bandwidth = BandwidthSpec(total=100 * KB) if i == 0 else None
        nodes.append(net.add_node(algorithm, name=f"n{i}", bandwidth=bandwidth))
    for i in range(length - 1):
        algorithms[i].set_downstreams([nodes[i + 1]])
    net.start()
    net.observer.deploy_source(nodes[0], app=9, payload_size=5000)
    net.run(5)
    return net, algorithms, nodes


def test_source_node_death_cascades_to_every_descendant():
    net, algorithms, nodes = build_deep_chain(5)
    net.kill_node(nodes[0])
    net.run(5)
    # Direct child sees the broken link; everyone further down sees the
    # domino BROKEN_SOURCE for app 9.
    assert str(nodes[0]) in algorithms[1].broken_links
    for depth in (2, 3, 4):
        assert 9 in algorithms[depth].broken_sources, f"depth {depth} missed the domino"


def test_midpath_death_notifies_only_downstream():
    net, algorithms, nodes = build_deep_chain(5)
    net.kill_node(nodes[2])
    net.run(5)
    # Upstream of the failure: a broken *downstream* link, no broken source.
    assert str(nodes[2]) in algorithms[1].broken_links
    assert algorithms[1].broken_sources == []
    assert algorithms[0].broken_sources == []
    # Downstream: the domino reaches the sink.
    assert 9 in algorithms[4].broken_sources


def test_multipath_node_survives_single_upstream_loss():
    """A node fed by two upstreams keeps flowing when one dies."""
    net = SimNetwork()
    src = CopyForwardAlgorithm()
    relay_a, relay_b = CopyForwardAlgorithm(), CopyForwardAlgorithm()
    sink = RecordingSink()
    n_src = net.add_node(src, name="src", bandwidth=BandwidthSpec(total=100 * KB))
    n_a = net.add_node(relay_a, name="a")
    n_b = net.add_node(relay_b, name="b")
    n_sink = net.add_node(sink, name="sink")
    src.set_downstreams([n_a, n_b])
    relay_a.set_downstreams([n_sink])
    relay_b.set_downstreams([n_sink])
    net.start()
    net.observer.deploy_source(n_src, app=3, payload_size=5000)
    net.run(5)
    net.kill_node(n_a)
    net.run(8)
    # One upstream remains: no BROKEN_SOURCE at the sink, data still flows.
    assert 3 not in sink.broken_sources
    before = sink.received
    net.run(5)
    assert sink.received > before


def test_domino_after_a_graceful_upstream_disconnect():
    """A gracefully dropped upstream no longer counts as carrying the app.

    S1 and S2 both feed app 1 into relay X, which forwards it to C.  X
    then disconnects S1 (a deliberate local act: no BROKEN_LINK, no
    domino) and S2 stops its source.  X has no live upstream left for
    app 1, so C must hear BROKEN_SOURCE.  Asyncio only: its links are
    full duplex, so ``disconnect`` drops the upstream half too, while
    the simulator's links are simplex.
    """

    async def scenario():
        host = VirtualHost()
        s1_alg, s2_alg, x_alg = (CopyForwardAlgorithm() for _ in range(3))
        sink = RecordingSink()
        s1, s2, x, c = (host.add_node(alg) for alg in (s1_alg, s2_alg, x_alg, sink))
        await host.start()
        s1_alg.set_downstreams([x.node_id])
        s2_alg.set_downstreams([x.node_id])
        x_alg.set_downstreams([c.node_id])
        for up in (s1, s2):
            assert await up.connect(x.node_id)
        assert await x.connect(c.node_id)
        s1.start_source(app=1, payload_size=500)
        s2.start_source(app=1, payload_size=500)
        for _ in range(200):  # until X has switched app 1 from both upstreams
            ports = [x._scheduler.get_port(up.node_id) for up in (s1, s2)]
            if all(port.switched for port in ports):
                break
            await asyncio.sleep(0.01)
        s1_alg.set_downstreams([])  # S1 keeps its source but sends nothing
        x.disconnect(s1.node_id)
        await asyncio.sleep(0.05)
        assert s1.node_id not in x.upstreams()
        s2.stop_source(1)
        await asyncio.sleep(0.2)
        await host.stop()
        return sink.broken_sources, sink.received

    broken_sources, received = asyncio.run(scenario())
    assert received > 0
    assert broken_sources == [1]
