"""Property checks of the simulated links' two ends under composed faults.

A 2–4-node chain runs on :class:`SimNetwork` with random socket-buffer
and port-buffer sizes (1–3), random send/receive throttles, and a
random schedule of breaks, stalls, disconnects, re-dials and node
terminations.  Whatever the schedule, on every link:

- conservation: every message pushed onto the wire is placed in the
  receiver's port buffer, counted lost, or still held (in the window or
  the receiving end's hand) — in push order, so FIFO holds;
- at most ``socket_buffer`` messages sit in the window, so at most
  ``socket_buffer + 1`` are in flight;
- once ``terminate()`` has returned, no link callback touches the
  engine: nothing is pushed, placed, counted or torn down there.
"""

from __future__ import annotations

from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.forwarding import CopyForwardAlgorithm, SinkAlgorithm
from repro.core.bandwidth import BandwidthSpec
from repro.sim import engine as sim_engine
from repro.sim.engine import EngineConfig, SimEngine
from repro.sim.link import SimLink
from repro.sim.network import NetworkConfig, SimNetwork

KB = 1024
FAULTS = ("break", "stall", "disconnect", "redial", "terminate")


class Recorder:
    """Wraps the link ends' effects to check them against each other."""

    def __init__(self) -> None:
        self.pushed: dict[SimLink, list] = defaultdict(list)
        self.placed: dict[SimLink, list] = defaultdict(list)
        self.lost: dict[SimLink, list] = defaultdict(list)
        self.violations: list[str] = []
        self.terminating: set[SimEngine] = set()

    def touched(self, engine: SimEngine, what: str) -> None:
        if engine._terminated and engine not in self.terminating:
            self.violations.append(f"{what} on terminated {engine.node_id}")

    def __enter__(self) -> "Recorder":
        rec = self
        push, placed = SimLink.push, sim_engine._ReceiverEnd._placed
        lose, terminate = sim_engine._ReceiverEnd._lose, SimEngine.terminate
        drop_up, drop_down = SimEngine._drop_upstream, SimEngine._drop_downstream
        self._saved = [(SimLink, "push", push), (sim_engine._ReceiverEnd, "_placed", placed),
                       (sim_engine._ReceiverEnd, "_lose", lose), (SimEngine, "terminate", terminate),
                       (SimEngine, "_drop_upstream", drop_up),
                       (SimEngine, "_drop_downstream", drop_down)]

        def push_(link, msg, sent_at):
            push(link, msg, sent_at)
            rec.pushed[link].append(msg)
            if len(link.window) > link.socket_buffer:
                rec.violations.append(f"window of {len(link.window)} on {link}")

        def placed_(end):
            rec.touched(end.engine, "place")
            rec.placed[end.link].append(end.msg)
            placed(end)

        def lose_(end):
            rec.touched(end.engine, "loss")
            rec.lost[end.link] += [end.msg, *(msg for msg, _ in end.link.window)]
            lose(end)

        def terminate_(engine):
            rec.terminating.add(engine)
            try:
                terminate(engine)
            finally:
                rec.terminating.discard(engine)

        def drop_up_(engine, *args, **kwargs):
            rec.touched(engine, "drop upstream")
            drop_up(engine, *args, **kwargs)

        def drop_down_(engine, *args, **kwargs):
            rec.touched(engine, "drop downstream")
            drop_down(engine, *args, **kwargs)

        SimLink.push = push_
        sim_engine._ReceiverEnd._placed = placed_
        sim_engine._ReceiverEnd._lose = lose_
        SimEngine.terminate = terminate_
        SimEngine._drop_upstream = drop_up_
        SimEngine._drop_downstream = drop_down_
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in self._saved:
            setattr(owner, name, original)

    def held(self, net: SimNetwork, link: SimLink) -> list:
        end = net.engines[link.dst]._receiving.get(link)
        in_hand = [] if end is None or end.msg is None else [end.msg]
        return in_hand + [msg for msg, _ in link.window]


def fault(net: SimNetwork, ids: list, kind: str, index: int) -> None:
    src = net.engines[ids[index % (len(ids) - 1)]]
    dst = ids[index % (len(ids) - 1) + 1]
    if not src.running:
        return
    if kind == "terminate":
        src.terminate()
    elif kind in ("break", "stall") and dst in src._senders:
        link = src._senders[dst].link
        link.break_() if kind == "break" else link.stall()
    elif kind == "disconnect":
        src.disconnect(dst)
    elif kind == "redial":  # the old link is superseded while in flight
        src.disconnect(dst)
        src.connect(dst)


schedules = st.lists(
    st.tuples(st.floats(0.05, 1.5), st.sampled_from(FAULTS), st.integers(0, 3)),
    max_size=5,
)
rates = st.sampled_from([None, 20 * KB, 100 * KB])


@settings(max_examples=150, deadline=None)
@given(
    nodes=st.integers(2, 4),
    socket_buffer=st.integers(1, 3),
    capacity=st.integers(1, 3),
    up=rates,
    down=rates,
    watchdog=st.booleans(),
    schedule=schedules,
)
def test_link_ends_conserve_order_bound_and_respect_termination(
    nodes, socket_buffer, capacity, up, down, watchdog, schedule
):
    with Recorder() as rec:
        net = SimNetwork(NetworkConfig(
            socket_buffer=socket_buffer,
            engine=EngineConfig(buffer_capacity=capacity,
                                inactivity_timeout=0.5 if watchdog else None),
        ))
        algorithms = [CopyForwardAlgorithm() for _ in range(nodes - 1)] + [SinkAlgorithm()]
        ids = [
            net.add_node(alg, bandwidth=BandwidthSpec(up=up, down=down))
            for alg in algorithms
        ]
        for alg, downstream in zip(algorithms, ids[1:]):
            alg.set_downstreams([downstream])
        net.start()
        net.observer.deploy_source(ids[0], app=1, payload_size=200)
        for at, kind, index in schedule:
            net.kernel.call_at(at, fault, net, ids, kind, index)
        net.run(2.0)
        for engine in net.engines.values():
            engine.stop_source(1)
        net.run(1.0)

    assert rec.violations == []
    assert rec.pushed, "nothing crossed a link"
    for link, pushed in rec.pushed.items():
        accounted = rec.placed[link] + rec.lost[link] + rec.held(net, link)
        assert [id(m) for m in accounted] == [id(m) for m in pushed], link
