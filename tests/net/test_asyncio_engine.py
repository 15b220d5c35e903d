"""Integration tests of the asyncio engine over real localhost sockets."""

import asyncio

import pytest

from repro.algorithms.forwarding import ChainRelayAlgorithm, CopyForwardAlgorithm, SinkAlgorithm
from repro.core.bandwidth import BandwidthSpec
from repro.core.ids import NodeId
from repro.core.message import Message
from repro.core.msgtypes import MsgType
from repro.net.engine import AsyncioEngine, NetEngineConfig
from repro.net.observer_server import ObserverServer
from repro.net.proxy import ObserverProxy

from tests.portalloc import next_addr


def run(coro):
    return asyncio.run(coro)


async def start_engines(*pairs, observer=None):
    engines = []
    for algorithm, config in pairs:
        engine = AsyncioEngine(
            next_addr(), algorithm,
            observer_addr=observer.addr if observer else None,
            config=config,
        )
        await engine.start()
        engines.append(engine)
    return engines


def test_two_node_data_flow():
    async def scenario():
        src_alg, dst_alg = CopyForwardAlgorithm(), SinkAlgorithm()
        src, dst = await start_engines((src_alg, None), (dst_alg, None))
        src_alg.set_downstreams([dst.node_id])
        src.start_source(app=1, payload_size=2000)
        await asyncio.sleep(0.5)
        await src.stop()
        await dst.stop()
        return dst_alg.received

    received = run(scenario())
    assert received > 10


def test_chain_preserves_order_and_counts():
    async def scenario():
        algs = [ChainRelayAlgorithm() for _ in range(3)]
        seqs = []

        class OrderSink(SinkAlgorithm):
            def on_data(self, msg):
                seqs.append(msg.seq)
                return super().on_data(msg)

        sink = OrderSink()
        engines = await start_engines(*((a, None) for a in algs), (sink, None))
        for i in range(2):
            algs[i].set_next_hop(engines[i + 1].node_id)
        algs[2].set_next_hop(engines[3].node_id)
        engines[0].start_source(app=1, payload_size=1000)
        await asyncio.sleep(0.7)
        for engine in engines:
            await engine.stop()
        return seqs

    seqs = run(scenario())
    assert len(seqs) > 10
    assert seqs == list(range(len(seqs)))


def test_bandwidth_throttle_limits_rate():
    async def scenario():
        src_alg, dst_alg = CopyForwardAlgorithm(), SinkAlgorithm()
        config = NetEngineConfig(bandwidth=BandwidthSpec(up=100_000.0))
        src, dst = await start_engines((src_alg, config), (dst_alg, None))
        src_alg.set_downstreams([dst.node_id])
        src.start_source(app=1, payload_size=5000)
        await asyncio.sleep(1.5)
        received_bytes = dst_alg.received_bytes
        await src.stop()
        await dst.stop()
        return received_bytes / 1.5

    rate = run(scenario())
    assert rate == pytest.approx(100_000.0, rel=0.35)


def test_peer_failure_detected_and_reported():
    async def scenario():
        src_alg, dst_alg = CopyForwardAlgorithm(), SinkAlgorithm()
        src, dst = await start_engines((src_alg, None), (dst_alg, None))
        src_alg.set_downstreams([dst.node_id])
        src.start_source(app=1, payload_size=1000)
        await asyncio.sleep(0.3)
        await dst.stop()  # abrupt departure from src's point of view
        await asyncio.sleep(0.5)
        gone = dst.node_id not in src.downstreams()
        dropped = dst.node_id not in src_alg.downstream_targets
        await src.stop()
        return gone, dropped

    gone, dropped = run(scenario())
    assert gone and dropped


def test_observer_bootstrap_status_and_trace():
    async def scenario():
        observer = ObserverServer(next_addr(), poll_interval=0.2)
        await observer.start()
        src_alg, dst_alg = CopyForwardAlgorithm(), SinkAlgorithm()
        src, dst = await start_engines((src_alg, None), (dst_alg, None), observer=observer)
        await asyncio.sleep(0.3)
        alive = set(observer.observer.alive)
        src_alg.set_downstreams([dst.node_id])
        src.start_source(app=1, payload_size=1000)
        src_alg.trace("live trace line")
        await asyncio.sleep(0.8)
        statuses = dict(observer.observer.statuses)
        traces = observer.observer.traces.matching("live trace line")
        await src.stop()
        await dst.stop()
        await observer.stop()
        return alive, statuses, traces, src.node_id, dst.node_id

    alive, statuses, traces, src_id, dst_id = run(scenario())
    assert {src_id, dst_id} <= alive
    assert src_id in statuses and dst_id in statuses[src_id].downstreams
    assert len(traces) == 1


def test_observer_control_deploys_source_remotely():
    async def scenario():
        observer = ObserverServer(next_addr(), poll_interval=0.2)
        await observer.start()
        src_alg, dst_alg = CopyForwardAlgorithm(), SinkAlgorithm()
        src, dst = await start_engines((src_alg, None), (dst_alg, None), observer=observer)
        src_alg.set_downstreams([dst.node_id])
        await asyncio.sleep(0.2)
        observer.observer.deploy_source(src.node_id, app=3, payload_size=1000)
        await asyncio.sleep(0.6)
        received = dst_alg.received
        observer.observer.terminate_node(src.node_id)
        await asyncio.sleep(0.4)
        src_running = src.running
        await dst.stop()
        await observer.stop()
        if src_running:
            await src.stop()
        return received, src_running

    received, src_running = run(scenario())
    assert received > 5
    assert not src_running


def test_proxy_relays_boot_status_and_control():
    async def scenario():
        observer = ObserverServer(next_addr(), poll_interval=0.2)
        await observer.start()
        proxy = ObserverProxy(next_addr(), observer.addr)
        await proxy.start()
        alg = SinkAlgorithm()
        (engine,) = await start_engines((alg, None), observer=proxy)
        await asyncio.sleep(0.6)
        alive = set(observer.observer.alive)
        statuses = dict(observer.observer.statuses)
        # Downstream control through the proxy: terminate the node.
        observer.observer.terminate_node(engine.node_id)
        await asyncio.sleep(0.4)
        running = engine.running
        relayed = (proxy.relayed_up, proxy.relayed_down)
        if running:
            await engine.stop()
        await proxy.stop()
        await observer.stop()
        return alive, statuses, running, relayed, engine.node_id

    alive, statuses, running, relayed, node_id = run(scenario())
    assert node_id in alive
    assert node_id in statuses
    assert not running
    assert relayed[0] > 0 and relayed[1] > 0


@pytest.mark.parametrize("transport", ["tcp", "loopback"])
def test_a_node_holds_the_same_tasks_whatever_its_link_count(transport):
    """Link ends are callbacks on the transport: 0, 1 or 4 live links
    (data flowing on each) leave a node with the same named tasks."""

    async def census(links: int) -> set[str]:
        from repro.net.virtual import VirtualHost

        host = VirtualHost() if transport == "loopback" else None
        config = NetEngineConfig(report_interval=0.05)
        if host is None:
            hub, *peers = await start_engines(*[(SinkAlgorithm(), config) for _ in range(links + 1)])
        else:
            hub, *peers = [host.add_node(SinkAlgorithm(), config=config) for _ in range(links + 1)]
            await host.start()
        try:
            for peer in peers:
                assert await hub.connect(peer.node_id)
                hub.send(Message(MsgType.DATA, hub.node_id, 1, b"x"), peer.node_id)
            await asyncio.sleep(0.1)
            assert all(peer.algorithm.received == 1 for peer in peers)
            return {name.split("/", 1)[1] for name in (t.get_name() for t in hub._tasks)}
        finally:
            for engine in (hub, *peers):
                await engine.stop()

    async def scenario():
        return [await census(links) for links in (0, 1, 4)]

    counts = run(scenario())
    assert counts[0] == counts[1] == counts[2] == {"engine", "report"}


async def _loopback_relay(capacity: int = 64):
    """A -> B -> C on one VirtualHost, settled: B is parked with nothing to do."""
    from repro.net.virtual import VirtualHost

    host = VirtualHost()
    config = NetEngineConfig(buffer_capacity=capacity, report_interval=1e9)
    relay = CopyForwardAlgorithm()
    a, b, c = (host.add_node(alg, config=config)
               for alg in (CopyForwardAlgorithm(), relay, SinkAlgorithm()))
    await host.start()
    relay.set_downstreams([c.node_id])
    await host.connect_chain()
    await asyncio.sleep(0.05)  # NEW_UPSTREAM notices drained, the loops parked
    assert b._parked and not b._wake.is_set()
    return host, a, b, c


def _burst(sender: AsyncioEngine, count: int, first: int = 0) -> list[Message]:
    return [Message(MsgType.DATA, sender.node_id, 1, b"x", seq=first + i) for i in range(count)]


def test_a_landing_is_switched_and_flushed_inside_the_push():
    """With the engine loop parked, the pass runs in the transport's push
    and the link it gave work leaves when it ends: by the time
    ``on_frames`` returns the message is in the pipe to C, and the loop
    was never woken."""

    async def scenario():
        host, a, b, c = await _loopback_relay()
        try:
            b._peers[a.node_id].on_frames(_burst(a, 3))
            pipe = b._peers[c.node_id].writer._tx.items
            landed = (b.algorithm.received, [msg.seq for msg in pipe],
                      len(b._out[c.node_id].queue), b._parked, b._wake.is_set())
            await asyncio.sleep(0.05)
            return landed, c.algorithm.received
        finally:
            await host.stop()

    landed, delivered = run(scenario())
    assert landed == (3, [0, 1, 2], 0, True, False)
    assert delivered == 3


def test_a_landing_while_a_pass_is_due_only_wakes_the_loop():
    async def scenario():
        host, a, b, c = await _loopback_relay()
        try:
            b._wake.set()  # something else already woke the loop
            b._peers[a.node_id].on_frames(_burst(a, 2))
            waiting = (b.algorithm.received, len(b._peers[a.node_id].port.buffer))
            await asyncio.sleep(0.05)
            return waiting, c.algorithm.received
        finally:
            await host.stop()

    waiting, delivered = run(scenario())
    assert waiting == (0, 2)
    assert delivered == 2


def test_a_landing_pass_first_flushes_what_an_earlier_pass_staged():
    """Staging outside a landing is flushed on the next loop iteration; a
    landing ahead of that flush sends it first, so its own pass finds the
    room instead of overflowing the send queue into a pending forward."""

    async def scenario():
        host, a, b, c = await _loopback_relay(capacity=4)
        try:
            for msg in _burst(b, 4):
                b.send(msg, c.node_id)  # the send queue is full, its flush due
            b._peers[a.node_id].on_frames(_burst(a, 4, first=4))
            pipe = b._peers[c.node_id].writer._tx.items
            return b._scheduler.pending_ports(), [msg.seq for msg in pipe]
        finally:
            await host.stop()

    pending, order = run(scenario())
    assert pending == 0
    assert order == list(range(8))


def test_a_swapped_transport_wakes_for_a_later_send():
    """The simultaneous-connect tie-break gives a link a fresh ``_Peer``
    over the same send queue.  The old end was idle, so the queue's
    listener is still the old end's: a send before the new end's first
    run must not be lost to it, and once the new end goes idle the
    listener is its own and a later send arrives."""
    from repro.net.virtual import loopback_pair

    async def scenario():
        host, a, b, c = await _loopback_relay()
        try:
            old = a._peers[b.node_id]
            queue = a._out[b.node_id].queue
            assert queue.on_size_change == old._on_size_change  # idle, listening
            ours, theirs = loopback_pair()
            a._adopt_connection(old, ours)
            b._adopt_connection(b._peers[a.node_id], theirs)
            new = a._peers[b.node_id]
            assert new is not old and new.out is old.out
            a.send(_burst(a, 1)[0], b.node_id)  # before the new end's first run
            await asyncio.sleep(0.05)
            first = c.algorithm.received
            listener = queue.on_size_change == new._on_size_change
            await asyncio.sleep(0.1)
            a.send(_burst(a, 1, first=1)[0], b.node_id)
            await asyncio.sleep(0.05)
            return first, listener, c.algorithm.received
        finally:
            await host.stop()

    assert run(scenario()) == (1, True, 2)
