"""An exception escaping an Algorithm hook fails a VirtualHost node loudly.

The cross-backend contract lives in
``tests/engine_suite/test_engine_task_errors.py``; this test pins the
asyncio view of it through ``VirtualHost.connect_chain``: the failed
relay also leaves its upstream's ``downstreams()`` table, so nothing
keeps a link to a node that will never switch again.
"""

import asyncio

from repro.algorithms.forwarding import CopyForwardAlgorithm, SinkAlgorithm
from repro.core.message import Message
from repro.core.msgtypes import MsgType
from repro.net.engine import NetEngineConfig
from repro.net.virtual import VirtualHost
from repro.telemetry import Telemetry
from repro.telemetry.tracing import EventType

ERRORS = "ioverlay_engine_algorithm_errors_total"


class Exploding(CopyForwardAlgorithm):
    """Forwards control traffic, raises on the first data message."""

    def process(self, msg):
        if msg.type == MsgType.DATA:
            raise RuntimeError("bug in process()")
        return super().process(msg)


class BrokenLinks(SinkAlgorithm):
    def __init__(self):
        super().__init__()
        self.broken = []

    def process(self, msg):
        if msg.type == MsgType.BROKEN_LINK:
            self.broken.append(msg.fields()["peer"])
        return super().process(msg)


def test_algorithm_exception_is_counted_traced_and_fails_the_node():
    async def scenario():
        telemetry = Telemetry()
        config = NetEngineConfig(telemetry=telemetry)
        host = VirtualHost()
        upstream_alg, downstream_alg = CopyForwardAlgorithm(), BrokenLinks()
        upstream = host.add_node(upstream_alg, config=config)
        relay = host.add_node(Exploding(), config=config)
        downstream = host.add_node(downstream_alg, config=config)
        await host.start()
        try:
            upstream_alg.set_downstreams([relay.node_id])
            relay.algorithm.set_downstreams([downstream.node_id])
            await host.connect_chain()
            await asyncio.sleep(0.05)
            assert ERRORS not in telemetry.snapshot()  # registered on first use
            upstream.send(Message(MsgType.DATA, upstream.node_id, 1, b"x"), relay.node_id)
            for _ in range(200):
                if not relay.running and relay.node_id not in upstream.downstreams():
                    break
                await asyncio.sleep(0.01)
            snapshot = telemetry.snapshot()
            faults = [e for e in telemetry.tracer.events()
                      if e.event == EventType.CONTROL_FAULT and e.node == str(relay.node_id)]
            return relay, upstream, downstream_alg, snapshot, faults
        finally:
            await host.stop()

    relay, upstream, downstream_alg, snapshot, faults = asyncio.run(scenario())
    assert not relay.running
    [series] = snapshot[ERRORS]["series"]
    assert series["labels"] == {"node": str(relay.node_id)} and series["value"] == 1
    [fault] = faults
    assert fault.detail["stage"] == "task" and fault.detail["task"].endswith("/engine")
    assert "bug in process()" in fault.detail["error"]
    # neighbours saw the links drop: the domino teardown can run
    assert relay.node_id not in upstream.downstreams()
    assert str(relay.node_id) in downstream_alg.broken
