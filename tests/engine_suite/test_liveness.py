"""Liveness of the progress-driven engine loop, on both backends.

The engine parks as soon as a pass leaves nothing to do and is woken
only by an event that can create work, so every test here builds a
topology whose relays spend their life blocked or idle — tiny buffers
behind a bandwidth-capped sink, a slow fan-out branch, a HOLD that only
a timer releases, a link still being dialed — and ends on the same
three checks:

- **conservation**: every ``send()`` an algorithm made either arrived at
  the next algorithm or is in some engine's ``lost_messages``;
- **nobody sleeps on work**: at every step, an engine holding a port a
  pass could move right now has its wake flag set;
- **no leaked task** once the cluster is shut down.

A lost wake-up shows as messages stuck in a buffer for good, which the
first check cannot miss.
"""

from __future__ import annotations

import random

import pytest

from repro.algorithms.forwarding import CopyForwardAlgorithm, SinkAlgorithm
from repro.core.algorithm import Disposition
from tests.engine_suite.test_shared_semantics import SeqSink

APP = 7
PAYLOAD = 500
#: a capped sink takes 200 messages a second
SLOW = 200 * PAYLOAD
SEEDS = (1, 2, 3)

pytestmark = pytest.mark.parametrize("seed", SEEDS)


class ClosingSource(CopyForwardAlgorithm):
    """A source that can be closed without abandoning a message half sent.

    ``stop_source`` from outside cancels the source task even while it
    waits for room for a message it has already sent in part; closing
    from inside ``process`` lets that message finish first.
    """

    closed = False

    def on_data(self, msg):
        if self.closed:
            self.engine.stop_source(msg.app)
            return Disposition.DONE
        return super().on_data(msg)


class HoldThenRelease(CopyForwardAlgorithm):
    """Keeps every message (HOLD) until a timer sends the lot downstream."""

    PERIOD = 0.05

    def __init__(self) -> None:
        super().__init__()
        self.held: list = []
        self.releases = 0

    def on_data(self, msg):
        self.received += 1
        if not self.held:
            self.engine.set_timer(self.PERIOD)
        self.held.append(msg)
        return Disposition.HOLD

    def on_timer(self, token):
        held, self.held = self.held, []
        self.releases += 1
        for msg in held:
            for dest in self.downstream_targets:
                self.send(msg, dest)
                self.forwarded += 1
        return Disposition.DONE


class Overlay:
    """The nodes of one test and the three closing checks."""

    def __init__(self, cluster, seed: int) -> None:
        self.cluster = cluster
        self.rng = random.Random(seed)
        self.engines: list = []
        self.sources: list = []

    def node(self, algorithm, **limits):
        """Add a node whose buffers hold 1-3 messages (drawn from the seed)."""
        limits.setdefault("capacity", self.rng.randint(1, 3))
        engine = self.cluster.add_node(algorithm, **limits)
        self.engines.append(engine)
        return engine

    @property
    def algorithms(self) -> list:
        return [engine.algorithm for engine in self.engines]

    def link(self, src, dst) -> None:
        src.algorithm.add_downstream(dst.node_id)

    def start_source(self, engine) -> None:
        self.sources.append(engine.algorithm)
        engine.start_source(app=APP, payload_size=PAYLOAD)

    def lost(self) -> int:
        return sum(e._status_report().fields()["lost_messages"] for e in self.engines)

    def in_flight(self) -> int:
        """Sends that have neither arrived nor been counted lost yet."""
        sent = sum(alg.forwarded for alg in self.algorithms)
        arrived = sum(alg.received for alg in self.algorithms if alg not in self.sources)
        return sent - arrived - self.lost()

    def run(self, seconds: float, step: float = 0.1) -> None:
        for _ in range(round(seconds / step)):
            self.cluster.settle(step)
            self.assert_nobody_sleeps_on_work()

    def run_until(self, condition, timeout: float = 10.0, step: float = 0.02) -> None:
        for _ in range(round(timeout / step)):
            if condition():
                return
            self.cluster.settle(step)
            self.assert_nobody_sleeps_on_work()
        assert condition(), f"{self.cluster.backend}: condition never held"

    def assert_nobody_sleeps_on_work(self) -> None:
        for engine in self.engines:
            movable = movable_ports(engine)
            assert not movable or wake_flag(engine), (
                f"{self.cluster.backend}: {engine.node_id} is parked while a pass "
                f"could move {[port.label for port in movable]}"
            )

    def finish(self, conserved: bool = True) -> None:
        """Close the sources, let everything drain, run the closing checks."""
        for source in self.sources:
            source.closed = True

        def drained() -> bool:
            snapshots = [engine.queue_snapshot() for engine in self.engines]
            return (
                (self.in_flight() == 0 or not conserved)
                and not any(s["total_messages"] or any(s["send"].values()) for s in snapshots)
                and not any(getattr(alg, "held", None) for alg in self.algorithms)
            )

        self.run_until(drained)
        settled = None
        while settled != (settled := self.in_flight()):
            self.run(0.3)  # nothing may trickle in (or get lost) afterwards
        assert drained()
        assert not any(engine._scheduler.pending_ports() for engine in self.engines)
        assert self.cluster.leaked_tasks() == []


def wake_flag(engine) -> bool:
    flag = engine._wake.is_set  # a method on asyncio.Event, a property on SimEvent
    return flag() if callable(flag) else flag


def movable_ports(engine) -> list:
    """Ports the next pass would take a message from, by the switch's own rule.

    A blocked port is left out on purpose: its sender frees the slot at
    the start of a flush and wakes the engine at the end of it, so for
    that long the engine is parked by design.  A wake-up lost *there*
    leaves the port blocked for good, which ``finish`` catches.
    """
    if not engine.running:
        return []
    working = [port for port in engine._scheduler.ports_view() if port.has_work()]
    epoch_due = all(port.credit <= 0 for port in working)
    return [port for port in working if not port.blocked and (epoch_due or port.credit > 0)]


def deferred(engine) -> int:
    return sum(port.deferred for port in engine._scheduler.ports_view())


def test_chain_of_blocked_relays_behind_a_capped_sink(make_cluster, seed):
    """Every relay sits blocked on a pending forward; nothing is stranded."""
    overlay = Overlay(make_cluster(seed=seed), seed)
    sink_alg = SeqSink()
    chain = [overlay.node(ClosingSource())]
    chain += [overlay.node(CopyForwardAlgorithm()) for _ in range(3)]
    chain.append(overlay.node(sink_alg, down=SLOW))
    overlay.cluster.start()
    for left, right in zip(chain, chain[1:]):
        overlay.link(left, right)
        overlay.cluster.connect(left, right)
    overlay.start_source(chain[0])
    overlay.run(0.6)
    for relay in chain[1:-1]:
        assert deferred(relay) > 0, f"{relay.node_id} never blocked: the test proves nothing"
    overlay.finish()
    assert len(sink_alg.seqs) > 50
    assert sink_alg.seqs == list(range(len(sink_alg.seqs)))
    assert overlay.lost() == 0


def test_fan_out_with_one_slow_branch(make_cluster, seed):
    """The slow branch holds the relay's port; both branches get everything."""
    overlay = Overlay(make_cluster(seed=seed), seed)
    fast_alg, slow_alg = SeqSink(), SeqSink()
    src = overlay.node(ClosingSource())
    relay = overlay.node(CopyForwardAlgorithm())
    fast = overlay.node(fast_alg)
    slow = overlay.node(slow_alg, down=SLOW)
    overlay.cluster.start()
    for left, right in ((src, relay), (relay, fast), (relay, slow)):
        overlay.link(left, right)
        overlay.cluster.connect(left, right)
    overlay.start_source(src)
    overlay.run(0.6)
    assert deferred(relay) > 0
    overlay.finish()
    assert len(slow_alg.seqs) > 50
    assert fast_alg.seqs == slow_alg.seqs == list(range(len(slow_alg.seqs)))
    assert overlay.lost() == 0


def test_hold_until_a_timer_releases(make_cluster, seed):
    """HOLD leaves no port work behind: only the timer's control message
    can wake the engine to release what the algorithm kept."""
    overlay = Overlay(make_cluster(seed=seed), seed)
    holder_alg, sink_alg = HoldThenRelease(), SinkAlgorithm()
    src = overlay.node(ClosingSource(), up=2 * SLOW)
    holder = overlay.node(holder_alg)
    sink = overlay.node(sink_alg)
    overlay.cluster.start()
    for left, right in ((src, holder), (holder, sink)):
        overlay.link(left, right)
        overlay.cluster.connect(left, right)
    overlay.start_source(src)
    overlay.run(0.6)
    overlay.finish()
    assert holder_alg.releases >= 5
    assert sink_alg.received == holder_alg.received > 50
    assert overlay.lost() == 0


def test_send_queue_fills_while_the_dial_is_in_flight(make_cluster, seed):
    """The relay's first forward opens the link; its 1-3 slot send queue
    is full, and its port blocked, before the transport is attached."""
    overlay = Overlay(make_cluster(seed=seed), seed)
    sink_alg = SeqSink()
    src = overlay.node(ClosingSource())
    relay = overlay.node(CopyForwardAlgorithm())
    sink = overlay.node(sink_alg)
    overlay.cluster.start()
    overlay.link(src, relay)
    overlay.link(relay, sink)
    overlay.cluster.connect(src, relay)  # the relay is never told to connect
    overlay.start_source(src)
    overlay.run(0.4)
    overlay.finish()
    assert len(sink_alg.seqs) > 100
    assert sink_alg.seqs == list(range(len(sink_alg.seqs)))
    assert overlay.lost() == 0


def test_set_port_weight_lands_on_a_blocked_engine(make_cluster, seed):
    """Retuning a weight while the relay waits for sender space keeps both
    upstreams flowing and strands nothing."""
    overlay = Overlay(make_cluster(seed=seed), seed)
    sink_alg = SinkAlgorithm()
    first, second = overlay.node(ClosingSource()), overlay.node(ClosingSource())
    relay = overlay.node(CopyForwardAlgorithm())
    sink = overlay.node(sink_alg, down=SLOW)
    overlay.cluster.start()
    for left, right in ((first, relay), (second, relay), (relay, sink)):
        overlay.link(left, right)
        overlay.cluster.connect(left, right)
    overlay.start_source(first)
    overlay.start_source(second)
    overlay.run_until(lambda: relay._scheduler.pending_ports() > 0)
    relay.set_port_weight(first.node_id, 3)
    ports = [relay._scheduler.get_port(source.node_id) for source in (first, second)]
    before = [port.switched for port in ports]
    overlay.run(0.6)
    for port, switched in zip(ports, before):
        assert port.switched > switched, f"upstream {port.label} starved"
    overlay.finish()
    assert sink_alg.received > 50
    assert overlay.lost() == 0


def test_disconnect_lands_on_a_blocked_engine(make_cluster, seed):
    """Dropping the link a port is blocked on frees the port: what it
    owed is counted lost and the next forward dials again."""
    overlay = Overlay(make_cluster(seed=seed), seed)
    sink_alg = SinkAlgorithm()
    src = overlay.node(ClosingSource())
    relay = overlay.node(CopyForwardAlgorithm())
    sink = overlay.node(sink_alg, down=SLOW)
    overlay.cluster.start()
    for left, right in ((src, relay), (relay, sink)):
        overlay.link(left, right)
        overlay.cluster.connect(left, right)
    overlay.start_source(src)
    overlay.run_until(lambda: relay._scheduler.pending_ports() > 0)
    relay.disconnect(sink.node_id)
    assert relay._scheduler.pending_ports() == 0
    lost_at_disconnect = overlay.lost()
    assert lost_at_disconnect >= 1  # at least the forward the port was blocked on
    received_before = sink_alg.received
    # (the sink may refuse the new dial until it has noticed the old link's end)
    overlay.run_until(lambda: sink_alg.received > received_before + 100)
    assert sink.node_id in relay.downstreams()
    # Both ends of a link count what it carried when it broke: a simulated
    # link's window, and on loopback what the receiving end held in hand
    # and what its pipe still carried.
    overlay.finish()
