"""Parity tests: behaviours the asyncio engine must share with the sim one."""

import asyncio

import pytest

from repro.algorithms.forwarding import CopyForwardAlgorithm, SinkAlgorithm
from repro.core.algorithm import Algorithm, Disposition
from repro.core.bandwidth import BandwidthSpec
from repro.core.ids import NodeId
from repro.net.engine import AsyncioEngine, NetEngineConfig

from tests.portalloc import next_addr


def run(coro):
    return asyncio.run(coro)


async def start(algorithm, config=None):
    engine = AsyncioEngine(next_addr(), algorithm, config=config)
    await engine.start()
    return engine


def test_measure_probe_returns_rtt():
    replies = []

    class Prober(SinkAlgorithm):
        def on_measure_reply(self, peer, rtt, send_rate):
            replies.append((peer, rtt))
            return Disposition.DONE

    async def scenario():
        prober = Prober()
        a = await start(prober)
        b = await start(SinkAlgorithm())
        await a.connect(b.node_id)
        await asyncio.sleep(0.1)
        a.measure(b.node_id)
        await asyncio.sleep(0.3)
        await a.stop()
        await b.stop()
        return replies

    result = run(scenario())
    assert len(result) == 1
    peer, rtt = result[0]
    assert 0 <= rtt < 0.5  # loopback round trip


def test_wrr_weights_split_on_asyncio_engine():
    """The deficit-WRR behaviour (see sim ablation) holds on real sockets.

    The batched backend grants ``weight * CREDIT_SCALE`` per credit epoch
    and one port spends its whole allowance before the other moves, so
    the weight ratio shows at the sink over whole epochs, not inside one.
    The uplink is sized so four epochs (1024 messages) pass in seconds,
    and the per-app deliveries are counted at the sink across them.
    """

    class PerAppSink(SinkAlgorithm):
        def __init__(self):
            super().__init__()
            self.per_app = {}

        def on_data(self, msg):
            self.per_app[msg.app] = self.per_app.get(msg.app, 0) + 1
            return super().on_data(msg)

    async def scenario():
        relay_alg = CopyForwardAlgorithm()
        sink = PerAppSink()
        config = NetEngineConfig(buffer_capacity=8,
                                 bandwidth=BandwidthSpec(up=4_000_000.0))
        relay = await start(relay_alg, config=config)
        out = await start(sink)
        relay_alg.set_downstreams([out.node_id])

        src1_alg, src2_alg = CopyForwardAlgorithm(), CopyForwardAlgorithm()
        src1 = await start(src1_alg)
        src2 = await start(src2_alg)
        src1_alg.set_downstreams([relay.node_id])
        src2_alg.set_downstreams([relay.node_id])
        src1.start_source(app=1, payload_size=5000)
        src2.start_source(app=2, payload_size=5000)
        await asyncio.sleep(0.4)
        relay.set_port_weight(src1.node_id, 3)
        relay.set_port_weight(src2.node_id, 1)

        async def delivered_after_epochs(count):
            target = relay._scheduler.epochs + count
            while relay._scheduler.epochs < target:
                await asyncio.sleep(0.002)
            return dict(sink.per_app)

        # The window opens and closes on an epoch boundary of the relay.
        baseline = await asyncio.wait_for(delivered_after_epochs(1), timeout=20)
        final = await asyncio.wait_for(delivered_after_epochs(4), timeout=20)
        delta = {app: final.get(app, 0) - baseline.get(app, 0) for app in (1, 2)}
        for engine in (src1, src2, relay, out):
            await engine.stop()
        return delta

    delta = run(scenario())
    assert delta[2] > 0 and delta[1] > 2.0 * delta[2], delta


def test_hold_disposition_on_asyncio_engine():
    held = []

    class Holder(Algorithm):
        def on_data(self, msg):
            held.append(msg)
            return Disposition.HOLD

    async def scenario():
        src_alg = CopyForwardAlgorithm()
        src = await start(src_alg)
        holder = Holder()
        dst = await start(holder)
        src_alg.set_downstreams([dst.node_id])
        src.start_source(app=1, payload_size=1000)
        await asyncio.sleep(0.4)
        # Snapshot both counters in one scheduling slice (no await between).
        port_held = dst._scheduler.ports[0].held if dst._scheduler.ports else 0
        held_count = len(held)
        await src.stop()
        await dst.stop()
        return port_held, held_count

    port_held, held_count = run(scenario())
    assert port_held > 0
    assert port_held == held_count


def test_per_link_bandwidth_cap_on_asyncio_engine():
    async def scenario():
        src_alg = CopyForwardAlgorithm()
        sink_a, sink_b = SinkAlgorithm(), SinkAlgorithm()
        src = await start(src_alg)
        a = await start(sink_a)
        b = await start(sink_b)
        src_alg.set_downstreams([a.node_id, b.node_id])
        src.throttle.set_link(a.node_id, 50_000.0)
        src.start_source(app=1, payload_size=5000)
        await asyncio.sleep(1.5)
        slow = sink_a.received_bytes / 1.5
        fast = sink_b.received_bytes / 1.5
        for engine in (src, a, b):
            await engine.stop()
        return slow, fast

    slow, fast = run(scenario())
    assert slow == pytest.approx(50_000.0, rel=0.4)
    assert fast > 3 * slow


def test_status_report_includes_loss_free_run():
    async def scenario():
        src_alg, sink = CopyForwardAlgorithm(), SinkAlgorithm()
        src = await start(src_alg)
        dst = await start(sink)
        src_alg.set_downstreams([dst.node_id])
        src.start_source(app=1, payload_size=1000)
        await asyncio.sleep(0.3)
        report = src._status_report().fields()
        await src.stop()
        await dst.stop()
        return report

    report = run(scenario())
    NodeId.parse(report["node"])  # well-formed identity
    assert report["apps"] == [1]
    assert report["send_rates"]
