"""VirtualHost: many full engines on one loop, zero-copy loopback links.

The 3-node chain and the fig8 butterfly mirror the determinism-guard
workloads (tests/integration/test_determinism_guard.py) running fully
in-process: same topology, same algorithms, message flow verified
end-to-end with every co-hosted pair brokered over loopback channels
rather than sockets.
"""

import asyncio

import pytest

from repro.algorithms.coding import (
    CodedSourceAlgorithm,
    CodingNodeAlgorithm,
    DecodingSinkAlgorithm,
)
from repro.algorithms.forwarding import CopyForwardAlgorithm, SinkAlgorithm
from repro.core.ids import NodeId
from repro.core.message import Message
from repro.core.msgtypes import MsgType
from repro.net.engine import NetEngineConfig
from repro.net.observer_server import ObserverServer
from repro.net.virtual import VirtualHost, loopback_pair

from tests.net.test_shm import RecordingEnd


def run(coro):
    return asyncio.run(coro)


def test_loopback_pair_passes_messages_by_reference():
    async def scenario():
        a, b = loopback_pair()
        end = RecordingEnd()
        a.attach(RecordingEnd())
        b.attach(end)
        msg = Message(MsgType.DATA, NodeId("10.0.0.1", 9), 1, b"x" * 100, seq=3)
        a.send_message(msg)
        assert a.flush()
        await asyncio.sleep(0)  # the delivery is one scheduled callback
        return end.bursts, msg

    bursts, msg = run(scenario())
    assert len(bursts) == 1 and bursts[0][0] is msg  # zero-copy: the very same object


def test_loopback_close_raises_socket_like_errors():
    async def scenario():
        a, b = loopback_pair()
        end = RecordingEnd()
        b.attach(end)
        a.close()
        await asyncio.sleep(0)
        assert isinstance(end.lost, asyncio.IncompleteReadError)
        with pytest.raises(ConnectionError):
            b.send_message(Message(MsgType.DATA, NodeId("10.0.0.1", 9), 1, b""))
        with pytest.raises(ConnectionError):
            b.flush()
        return True

    assert run(scenario())


def test_loopback_window_backpressure():
    async def scenario():
        a, b = loopback_pair(window=4)
        sender, receiver = RecordingEnd(), RecordingEnd()
        a.attach(sender)
        b.attach(receiver)
        b.pause_reading()  # the receiving end takes nothing for now
        msg = Message(MsgType.DATA, NodeId("10.0.0.1", 9), 1, b"p")
        for _ in range(4):
            a.send_message(msg)
        blocked_while_full = not a.flush()
        await asyncio.sleep(0.01)
        still_blocked = not sender.woken.is_set() and receiver.bursts == []
        b.resume_reading()  # the take reopens the window and wakes the sender
        await asyncio.wait_for(sender.woken.wait(), timeout=1.0)
        return blocked_while_full, still_blocked, len(receiver.frames)

    assert run(scenario()) == (True, True, 4)


def test_three_node_chain_in_process():
    """The determinism-guard chain shape, fully co-hosted: A -> B -> C."""

    async def scenario():
        host = VirtualHost()
        a_alg, b_alg, c_alg = CopyForwardAlgorithm(), CopyForwardAlgorithm(), SinkAlgorithm()
        a, b, c = (host.add_node(alg) for alg in (a_alg, b_alg, c_alg))
        await host.start()
        a_alg.set_downstreams([b.node_id])
        b_alg.set_downstreams([c.node_id])
        await host.connect_chain()
        a.start_source(app=1, payload_size=1000)
        await asyncio.sleep(0.4)
        received = c_alg.received
        dials = host.resolver.dials
        await host.stop()
        return received, dials

    received, dials = run(scenario())
    assert received > 0
    assert dials == 2  # both hops brokered in-process, no sockets


def test_butterfly_with_coding_in_process():
    """The fig8 butterfly (A,B,C,D,E,F,G) with GF(2^8) coding at D."""

    async def scenario():
        host = VirtualHost()
        source = CodedSourceAlgorithm()
        b_alg, c_alg = CopyForwardAlgorithm(), CopyForwardAlgorithm()
        d_alg = CodingNodeAlgorithm(k=2, coefficients=None)
        e_alg = DecodingSinkAlgorithm(k=2)
        f_alg = DecodingSinkAlgorithm(k=2)
        g_alg = DecodingSinkAlgorithm(k=2)
        nodes = {
            name: host.add_node(alg)
            for name, alg in (
                ("A", source), ("B", b_alg), ("C", c_alg), ("D", d_alg),
                ("E", e_alg), ("F", f_alg), ("G", g_alg),
            )
        }
        await host.start()
        ids = {name: engine.node_id for name, engine in nodes.items()}
        source.set_downstreams([ids["B"], ids["C"]])
        b_alg.set_downstreams([ids["D"], ids["F"]])
        c_alg.set_downstreams([ids["D"], ids["G"]])
        d_alg.set_downstreams([ids["E"]])
        e_alg.set_forward_to([ids["F"], ids["G"]])
        nodes["A"].start_source(app=1, payload_size=5000)
        await asyncio.sleep(1.5)
        decoded = {"F": f_alg.decoded_generations, "G": g_alg.decoded_generations}
        dials = host.resolver.dials
        await host.stop()
        return decoded, dials

    decoded, dials = run(scenario())
    # Both leaves decode from one direct sub-stream plus D's coded a+b.
    assert decoded["F"] > 0
    assert decoded["G"] > 0
    assert dials == 9  # all nine butterfly edges in-process


def test_graceful_disconnect_parity_on_net_backend():
    """disconnect() reached through DISCONNECT control drops the link
    without raising BROKEN_LINK locally — the sim engine's semantics,
    now shared through EngineCore (the historical sim/net API drift)."""

    broken = []

    class Recorder(CopyForwardAlgorithm):
        def on_broken_link(self, msg):
            broken.append(msg.fields())
            return super().on_broken_link(msg)

    async def scenario():
        host = VirtualHost()
        src_alg, sink_alg = Recorder(), SinkAlgorithm()
        src, sink = host.add_node(src_alg), host.add_node(sink_alg)
        await host.start()
        src_alg.set_downstreams([sink.node_id])
        src.start_source(app=1, payload_size=500)
        await asyncio.sleep(0.2)
        assert sink.node_id in src.downstreams()
        src.stop_source(app=1)  # quiesce so nothing redials after teardown
        await asyncio.sleep(0.05)
        src.disconnect(sink.node_id)
        after_disconnect = src.downstreams()
        report = src._status_report().fields()
        await asyncio.sleep(0.1)
        await host.stop()
        return after_disconnect, report

    after_disconnect, report = run(scenario())
    assert after_disconnect == []
    assert not broken  # graceful teardown is silent locally
    # loss accounting survives the teardown, as on the sim engine
    assert report["lost_messages"] >= 0 and "lost_bytes" in report


def test_dial_dead_cohosted_node_is_refused():
    async def scenario():
        host = VirtualHost()
        alg_a, alg_b = CopyForwardAlgorithm(), SinkAlgorithm()
        a, b = host.add_node(alg_a), host.add_node(alg_b)
        await host.start()
        await b.stop()
        with pytest.raises(ConnectionRefusedError):
            host.resolver.dial(a.node_id, b.node_id)
        ok = await a.connect(b.node_id)  # full dial path: retries, then gives up
        await host.stop()
        return ok

    assert run(scenario()) is False


def test_hundred_nodes_report_status_to_observer():
    """Acceptance: >= 100 nodes in one process run the fig5-chain
    workload with per-node status reports still reaching the observer."""

    N = 100

    async def scenario():
        obs = ObserverServer(NodeId("127.0.0.1", 0), poll_interval=0.3)
        await obs.start()
        host = VirtualHost(observer_addr=obs.addr)
        algs = [CopyForwardAlgorithm() for _ in range(N - 1)] + [SinkAlgorithm()]
        engines = [
            host.add_node(alg, config=NetEngineConfig(report_interval=0.5))
            for alg in algs
        ]
        await host.start()
        for alg, nxt in zip(algs, engines[1:]):
            alg.set_downstreams([nxt.node_id])
        await host.connect_chain()
        engines[0].start_source(app=1, payload_size=1000)
        reported = 0
        for _ in range(40):  # up to ~8s for all poll round trips
            await asyncio.sleep(0.2)
            reported = len(obs.observer.statuses)
            if reported >= N and algs[-1].received > 0:
                break
        delivered = algs[-1].received
        dials = host.resolver.dials
        await host.stop()
        await obs.stop()
        return reported, delivered, dials

    reported, delivered, dials = run(scenario())
    assert reported >= N, f"only {reported} nodes reported status"
    assert delivered > 0  # data crossed the whole 100-hop chain
    assert dials == N - 1  # every chain hop brokered in-process
