"""Deficit round robin over whole credit epochs, on both backends.

A relay with two upstreams weighted 3:1 and a capped uplink: its send
queue is always full, so every message leaves through the pending path
and the epoch rule ("open a new epoch once every port with work has
spent its credit", applied at the head of a pass) is all that decides
the shares.  The window is cut at the relay's own epoch boundaries, so
the expected share is exact up to the one message a port may have
switched but not yet placed.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from repro.algorithms.forwarding import CopyForwardAlgorithm, SinkAlgorithm
from repro.telemetry import Telemetry
from repro.telemetry.tracing import EventType

PAYLOAD = 1000
#: the relay's uplink: about a thousand messages a second
UPLINK = 1_000_000.0
#: messages in the measured window (four epochs of the asyncio backend)
WINDOW = 1024


class SiblingCheck(defaultdict):
    """``ins.credit_stalls`` that records every stall no sibling justifies.

    A stall is justified when the pass it happens in started with a
    sibling that had work and credit left; ``rotation`` (which a pass
    calls right after its epoch decision) takes that picture.
    """

    def __init__(self, scheduler) -> None:
        super().__init__(int)
        self.holding: set[str] = set()
        self.unjustified: list[str] = []
        rotation = scheduler.rotation

        def rotation_and_look():
            self.holding = {
                p.label for p in scheduler.ports_view() if p.credit > 0 and p.has_work()
            }
            return rotation()

        scheduler.rotation = rotation_and_look

    def __setitem__(self, label, value) -> None:
        if not self.holding - {label}:
            self.unjustified.append(label)
        super().__setitem__(label, value)


def test_weights_hold_over_whole_epochs(make_cluster):
    telemetry = Telemetry(trace_capacity=1 << 20)
    cluster = make_cluster(telemetry=telemetry)
    heavy_alg, light_alg = CopyForwardAlgorithm(), CopyForwardAlgorithm()
    relay_alg, sink_alg = CopyForwardAlgorithm(), SinkAlgorithm()
    heavy, light = cluster.add_node(heavy_alg), cluster.add_node(light_alg)
    relay = cluster.add_node(relay_alg, up=UPLINK, capacity=8)
    sink = cluster.add_node(sink_alg)
    cluster.start()
    heavy_alg.set_downstreams([relay.node_id])
    light_alg.set_downstreams([relay.node_id])
    relay_alg.set_downstreams([sink.node_id])
    for src in (heavy, light):
        cluster.connect(src, relay)
    cluster.connect(relay, sink)
    scheduler = relay._scheduler
    scheduler.set_weight(heavy.node_id, 3)
    ports = [scheduler.get_port(src.node_id) for src in (heavy, light)]
    stalls = relay._ins.credit_stalls = SiblingCheck(scheduler)

    heavy.start_source(app=1, payload_size=PAYLOAD)
    light.start_source(app=2, payload_size=PAYLOAD)
    cluster.settle(0.5)  # until both receive buffers stay backlogged

    # One mark per epoch: what each port had switched when it opened.
    marks: list[tuple[int, int]] = []
    replenish = scheduler.replenish_credits

    def replenish_and_mark(scale: int = 1) -> None:
        marks.append((ports[0].switched, ports[1].switched))
        replenish(scale)

    scheduler.replenish_credits = replenish_and_mark
    epochs = WINDOW // (4 * relay.CREDIT_SCALE)
    for _ in range(400):
        if len(marks) > epochs:
            break
        cluster.settle(0.05)
    assert len(marks) > epochs, f"{cluster.backend}: only {len(marks)} epochs"
    moved_heavy, moved_light = (marks[epochs][i] - marks[0][i] for i in (0, 1))
    assert abs(moved_heavy - WINDOW * 3 // 4) <= 1, (cluster.backend, marks)
    assert abs(moved_light - WINDOW * 1 // 4) <= 1, (cluster.backend, marks)

    # The trace carries at most one credit-exhausted event per port per
    # epoch, while the counter has every skipped visit — and each of
    # those had a sibling with work still holding credit.
    exhausted = Counter(
        event.detail["peer"] for event in telemetry.tracer.events()
        if event.event == EventType.CREDIT_EXHAUSTED and event.node == str(relay.node_id)
    )
    assert exhausted, "an output-congested 3:1 relay must stall its spent port"
    for port in ports:
        assert exhausted[port.label] <= scheduler.epochs
        assert stalls[port.label] >= exhausted[port.label]
    assert stalls.unjustified == []
