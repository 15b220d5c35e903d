"""The engine loop does work in proportion to messages, not wake-ups.

Deterministic counts on the discrete-event backend (the benchmark's
``sim_chain`` shape: 8 nodes, 5000-byte payloads, ``buffer_capacity``
10, telemetry on) and two paced counts on the asyncio backend.  Before
the loop was progress-driven a relay ran four switch passes, one credit
stall and 6.28 kernel events per message-hop; with a receiver and a
sender task per link it still took 5.28.  With link ends as callbacks
a hop is one sender run, one latency timer and one engine wake-up
(3.29, the rest is the source).

The asyncio backend made the same move: over TCP, one message at a
time, a hop cost 3.14 event-loop callbacks (``call_soon``) while each
link had a receiver and a sender task, and 2.14 callbacks over 3.15
loop iterations (the read, the engine wake-up, the pump run) once the
link ends were callbacks.  Now a relay switches where the data lands
and flushes when the pass ends: a hop is one loop iteration and no
callback (1.29 iterations and 0.29 callbacks per hop on the 8-node
chain; the rest is the source's flush and the waiting test's own
wake-up, per message).
"""

from __future__ import annotations

import asyncio
import os
import sys

import repro
from repro.algorithms.forwarding import CopyForwardAlgorithm, SinkAlgorithm
from repro.core.ids import NodeId
from repro.core.message import Message
from repro.core.msgtypes import MsgType
from repro.net.engine import AsyncioEngine, NetEngineConfig
from repro.net.virtual import VirtualHost
from repro.sim.engine import EngineConfig
from repro.sim.network import NetworkConfig, SimNetwork
from repro.telemetry import Telemetry

APP = 1
NODES = 8
#: longer than any run here: no periodic report, poll or bootstrap refresh
NEVER = 1e9


def by_node(snapshot: dict, metric: str) -> dict[str, float]:
    """A counter family summed over its other labels, per node."""
    totals: dict[str, float] = {}
    for series in snapshot.get(metric, {}).get("series", ()):
        node = series["labels"]["node"]
        totals[node] = totals.get(node, 0.0) + series["value"]
    return totals


def sim_chain(telemetry: Telemetry | None, quiet: bool) -> tuple[SimNetwork, list, SinkAlgorithm]:
    """The benchmark's chain; ``quiet`` silences everything periodic."""
    engine = EngineConfig(buffer_capacity=10)
    config = NetworkConfig(engine=engine, seed=3, telemetry=telemetry)
    if quiet:
        engine.report_interval = config.observer_poll_interval = NEVER
        engine.bootstrap_refresh = None
    net = SimNetwork(config)
    chain = [CopyForwardAlgorithm() for _ in range(NODES - 1)] + [SinkAlgorithm()]
    ids = [net.add_node(algorithm, name=f"n{i}") for i, algorithm in enumerate(chain)]
    for algorithm, downstream in zip(chain, ids[1:]):
        algorithm.set_downstreams([downstream])
    net.start()
    net.observer.deploy_source(ids[0], app=APP, payload_size=5000)
    return net, ids, chain[-1]


def test_des_relay_runs_one_pass_per_message_and_never_stalls():
    telemetry = Telemetry()
    net, ids, sink = sim_chain(telemetry, quiet=True)
    net.run(3.0)
    snapshot = telemetry.snapshot()
    rounds = by_node(snapshot, "ioverlay_engine_switch_rounds_total")
    switched = by_node(snapshot, "ioverlay_engine_switched_messages_total")
    epochs = by_node(snapshot, "ioverlay_engine_credit_epochs_total")
    assert sink.received > 2000
    for node in map(str, ids[1:]):  # every relay and the sink: one upstream each
        assert switched[node] >= sink.received
        # boot: the first look at start-up, the observer's bootstrap reply
        # and NEW_UPSTREAM each wake the engine before any data is there
        assert 0 <= rounds[node] - switched[node] <= 4, (node, rounds[node], switched[node])
        # weight 1: an epoch per message, after the credit the port was born with
        assert epochs[node] == switched[node] - 1
    assert by_node(snapshot, "ioverlay_engine_credit_stalls_total") == {}
    assert by_node(snapshot, "ioverlay_engine_defers_total") == {}


def test_des_chain_costs_at_most_3_3_kernel_events_per_message_hop():
    net, _ids, sink = sim_chain(telemetry=None, quiet=False)
    net.run(1.0)
    delivered, events = sink.received, net.kernel._sequence
    net.run(2.0)
    delivered, events = sink.received - delivered, net.kernel._sequence - events
    assert delivered > 1500
    assert events / (delivered * (NODES - 1)) <= 3.3


class PackageCalls:
    """A profile hook counting Python calls into ``repro`` code.

    Counting only the package's own frames keeps the figure the same on
    every supported CPython (3.11 and 3.12 agree).
    """

    def __init__(self) -> None:
        self.calls = 0
        self._package = os.path.dirname(repro.__file__) + os.sep

    def __call__(self, frame, event, arg) -> None:
        if event == "call" and frame.f_code.co_filename.startswith(self._package):
            self.calls += 1

    def __enter__(self) -> "PackageCalls":
        sys.setprofile(self)
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(None)


def test_des_hop_costs_at_most_70_python_calls_in_the_package():
    """Python function calls per message-hop into ``repro`` code, on the
    quiet chain.  It read 99.3 while the switch path tracked each
    message's app per peer through two app->peer tables, and 88.1 with
    per-link app sets and no per-message property reads.  With the
    switch settling its counters inline, an idle pump woken once and
    the engine woken as one ready callback instead of a task step, it
    reads 67.1."""
    net, _ids, sink = sim_chain(telemetry=None, quiet=True)
    net.run(1.0)
    delivered = sink.received
    with PackageCalls() as counter:
        net.run(2.0)
    delivered = sink.received - delivered
    assert delivered > 1500
    assert counter.calls / (delivered * (NODES - 1)) <= 70


def test_virtual_chain_hop_costs_at_most_17_python_calls_in_the_package():
    """The same count on the asyncio backend: an 8-node chain on one
    VirtualHost (zero-copy loopback links, 64-B payloads, buffers of
    10, the ``virtual_pack`` shape), where the switch path is nearly
    all the work.  Calls per hop, source included, read 22.6 while
    every take reported through the buffer listener and ``note_bytes``,
    every put into a busy send queue called its pump's listener and
    ``Algorithm.send`` went through the ``engine`` property; 14.6 after."""

    async def scenario() -> tuple[int, int]:
        host = VirtualHost()
        algorithms = [CopyForwardAlgorithm() for _ in range(NODES - 1)] + [SinkAlgorithm()]
        config = NetEngineConfig(buffer_capacity=10, report_interval=NEVER)
        engines = [host.add_node(alg, config=config) for alg in algorithms]
        await host.start()
        try:
            for algorithm, downstream in zip(algorithms, engines[1:]):
                algorithm.set_downstreams([downstream.node_id])
            await host.connect_chain()
            engines[0].start_source(app=APP, payload_size=64)
            sink = algorithms[-1]
            await asyncio.sleep(0.5)  # past the fill
            delivered = sink.received
            with PackageCalls() as counter:
                await asyncio.sleep(1.0)
            return counter.calls, sink.received - delivered
        finally:
            await host.stop()

    calls, delivered = asyncio.run(scenario())
    assert delivered > 500
    assert calls / (delivered * (NODES - 1)) <= 17


def test_asyncio_paced_message_costs_one_pass_per_hop():
    """Sent one at a time nothing batches: a message is one pass at each hop."""
    paced = 50

    async def scenario() -> tuple[list[int], list[int], int]:
        telemetry = Telemetry()
        host = VirtualHost()
        algorithms = [CopyForwardAlgorithm() for _ in range(3)] + [SinkAlgorithm()]
        engines = [
            host.add_node(alg, config=NetEngineConfig(report_interval=NEVER, telemetry=telemetry))
            for alg in algorithms
        ]
        await host.start()
        try:
            for algorithm, downstream in zip(algorithms, engines[1:]):
                algorithm.set_downstreams([downstream.node_id])
            await host.connect_chain()
            await asyncio.sleep(0.05)  # NEW_UPSTREAM notices drained
            hops = engines[1:]
            before = [engine._ins.n_switch_rounds for engine in hops]
            source = engines[0]
            sink = algorithms[-1]
            for seq in range(paced):
                msg = Message(MsgType.DATA, source.node_id, APP, b"x" * 64, seq=seq)
                source.send(msg, engines[1].node_id)
                while sink.received <= seq:  # the next one leaves once this one is in
                    await asyncio.sleep(0.001)
            after = [engine._ins.n_switch_rounds for engine in hops]
            return before, after, sink.received
        finally:
            await host.stop()

    before, after, received = asyncio.run(scenario())
    assert received == paced
    assert [b - a for a, b in zip(before, after)] == [paced] * 3


class SignallingSink(SinkAlgorithm):
    """Resolves ``arrived`` at every delivery."""

    arrived: asyncio.Future | None = None

    def on_data(self, msg):
        if self.arrived is not None and not self.arrived.done():
            self.arrived.set_result(msg.seq)
        return super().on_data(msg)


def test_asyncio_tcp_paced_hop_is_one_loop_iteration():
    """The benchmark's ``paced_chain`` shape over real TCP: a message sent
    one at a time is switched inside each relay's ``data_received`` and
    written when that pass ends, so a hop costs one event-loop iteration
    and no ``call_soon`` (the benchmark wraps the same method)."""
    paced = 200

    async def scenario() -> tuple[int, int, int]:
        loop = asyncio.get_running_loop()
        algorithms = [CopyForwardAlgorithm() for _ in range(NODES - 1)] + [SignallingSink()]
        engines = [
            AsyncioEngine(NodeId("127.0.0.1", 0), algorithm,
                          config=NetEngineConfig(buffer_capacity=10, report_interval=NEVER))
            for algorithm in algorithms
        ]
        for engine in engines:
            await engine.start()
        try:
            for algorithm, downstream in zip(algorithms, engines[1:]):
                algorithm.set_downstreams([downstream.node_id])
            for upstream, downstream in zip(engines, engines[1:]):
                assert await upstream.connect(downstream.node_id)
            await asyncio.sleep(0.05)  # NEW_UPSTREAM notices drained
            source, sink, calls, iterations = engines[0], algorithms[-1], 0, 0
            call_soon, run_once = loop.call_soon, loop._run_once

            def counting(*args, **kwargs):
                nonlocal calls
                calls += 1
                return call_soon(*args, **kwargs)

            def counting_iteration():
                nonlocal iterations
                iterations += 1
                return run_once()

            loop.call_soon, loop._run_once = counting, counting_iteration
            try:
                for seq in range(paced):
                    sink.arrived = loop.create_future()
                    msg = Message(MsgType.DATA, source.node_id, APP, b"x" * 5000, seq=seq)
                    source.send(msg, engines[1].node_id)
                    await sink.arrived  # the next one leaves once this one is in
            finally:
                del loop.call_soon, loop._run_once
            return calls, iterations, sink.received
        finally:
            for engine in reversed(engines):
                await engine.stop()

    calls, iterations, received = asyncio.run(scenario())
    assert received == paced
    hops = paced * (NODES - 1)
    # per message: the source's flush and the test's wake-up (2 / 7)
    assert calls / hops <= 0.5
    assert iterations / hops <= 1.5
