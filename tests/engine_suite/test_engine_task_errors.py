"""An exception escaping an Algorithm hook fails the node loudly, on
every backend.

The engine counts it in ``ioverlay_engine_algorithm_errors_total``,
traces it as a ``CONTROL_FAULT`` of the ``<node>/engine`` stage and
terminates the node, so its neighbours see BROKEN_LINK and the domino
teardown can run.  The discrete-event kernel also raises
:class:`~repro.errors.SimulationError` from ``run``, caused by the
hook's exception, so a failing test surfaces at once instead of as a
silent stall.
"""

from __future__ import annotations

from repro.algorithms.forwarding import CopyForwardAlgorithm
from repro.core.message import Message
from repro.core.msgtypes import MsgType
from repro.errors import SimulationError
from repro.telemetry import Telemetry
from repro.telemetry.tracing import EventType

ERRORS = "ioverlay_engine_algorithm_errors_total"


class Exploding(CopyForwardAlgorithm):
    """Forwards control traffic, raises on the first data message."""

    def process(self, msg):
        if msg.type == MsgType.DATA:
            raise RuntimeError("bug in process()")
        return super().process(msg)


class Witness(CopyForwardAlgorithm):
    """Forwards data and records the peer of every BROKEN_LINK."""

    def __init__(self) -> None:
        super().__init__()
        self.broken: list[str] = []

    def on_broken_link(self, msg):
        self.broken.append(msg.fields()["peer"])
        return super().on_broken_link(msg)


def test_algorithm_exception_is_counted_traced_and_fails_the_node(make_cluster, backend_name):
    telemetry = Telemetry()
    cluster = make_cluster(telemetry=telemetry)
    upstream_alg, downstream_alg = Witness(), Witness()
    upstream, relay, downstream = (
        cluster.add_node(alg) for alg in (upstream_alg, Exploding(), downstream_alg))
    cluster.start()
    upstream_alg.set_downstreams([relay.node_id])
    relay.algorithm.set_downstreams([downstream.node_id])
    cluster.connect(upstream, relay)
    cluster.connect(relay, downstream)
    cluster.settle(0.05)
    assert relay.running
    assert ERRORS not in telemetry.snapshot()  # registered on first use

    upstream.send(Message(MsgType.DATA, upstream.node_id, 1, b"x", seq=0), relay.node_id)
    errors = cluster.settle_through_crash(0.2)

    if backend_name == "sim":
        [error] = errors
        assert type(error) is SimulationError
        assert isinstance(error.__cause__, RuntimeError)
    else:
        assert errors == []
    assert not relay.running
    [series] = telemetry.snapshot()[ERRORS]["series"]
    assert series["labels"] == {"node": str(relay.node_id)} and series["value"] == 1
    [fault] = [event for event in telemetry.tracer.events()
               if event.event == EventType.CONTROL_FAULT and event.node == str(relay.node_id)]
    assert fault.detail["stage"] == "task"
    assert fault.detail["task"] == f"{relay.node_id}/engine"
    assert "bug in process()" in fault.detail["error"]

    # Neighbours see the links drop.  A simulated sender notices a dead
    # downstream when it next sends; the asyncio one already has.
    upstream.send(Message(MsgType.DATA, upstream.node_id, 1, b"x", seq=1), relay.node_id)
    cluster.settle_through_crash(0.2)
    assert str(relay.node_id) in upstream_alg.broken
    assert str(relay.node_id) in downstream_alg.broken
