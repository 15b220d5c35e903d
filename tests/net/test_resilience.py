"""Tests of the connection supervisor: backoff, tie-break, observer outbox."""

import asyncio
import random

import pytest

from repro.algorithms.forwarding import CopyForwardAlgorithm, SinkAlgorithm
from repro.core.ids import NodeId
from repro.core.message import Message
from repro.core.msgtypes import MsgType
from repro.net.engine import AsyncioEngine, NetEngineConfig
from repro.net.observer_server import ObserverServer
from repro.net.resilience import BackoffPolicy, ObserverOutbox, ResilienceConfig
from repro.telemetry import Telemetry

from tests.portalloc import next_addr


def run(coro):
    return asyncio.run(coro)


def fast_resilience(**overrides) -> ResilienceConfig:
    base = dict(connect_retries=3, backoff_base=0.02, backoff_max=0.1,
                backoff_jitter=0.1, seed=7, observer_backoff_max=0.1)
    base.update(overrides)
    return ResilienceConfig(**base)


async def start(algorithm, config=None, observer=None, addr=None):
    engine = AsyncioEngine(
        addr or next_addr(), algorithm,
        observer_addr=observer.addr if observer else None,
        config=config,
    )
    await engine.start()
    return engine


class BrokenLinkRecorder(SinkAlgorithm):
    def __init__(self):
        super().__init__()
        self.broken = []

    def on_broken_link(self, msg):
        self.broken.append(msg.fields()["peer"])
        return super().on_broken_link(msg)


# ------------------------------------------------------------------ pure policy


def test_backoff_is_deterministic_and_bounded():
    a = BackoffPolicy(0.05, 2.0, jitter=0.2, rng=random.Random(42))
    b = BackoffPolicy(0.05, 2.0, jitter=0.2, rng=random.Random(42))
    delays_a = [a.delay(i) for i in range(10)]
    delays_b = [b.delay(i) for i in range(10)]
    assert delays_a == delays_b  # same seed, same schedule
    for i, delay in enumerate(delays_a):
        assert 0.05 * 2**i * 0.999 <= delay or delay >= 2.0 * 0.999
        assert delay <= 2.0 * 1.2  # capped even with jitter
    assert delays_a[0] < delays_a[3]  # grows before the cap


def test_backoff_without_jitter_is_pure_exponential():
    policy = BackoffPolicy(0.1, 1.0)
    assert [policy.delay(i) for i in range(5)] == [0.1, 0.2, 0.4, 0.8, 1.0]


def test_outbox_drop_oldest_and_at_least_once_head():
    box = ObserverOutbox(capacity=3)
    msgs = [Message.with_fields(MsgType.TRACE, NodeId("1.1.1.1", 1), 0, i=i)
            for i in range(5)]
    assert box.push(msgs[0]) is None
    assert box.push(msgs[1]) is None
    assert box.push(msgs[2]) is None
    assert box.push(msgs[3]) is msgs[0]  # overflow evicts the oldest
    assert box.push(msgs[4]) is msgs[1]
    assert len(box) == 3
    assert box.snapshot() == msgs[2:]
    box.pop_head(msgs[3])  # not the head any more -> no-op
    assert box.snapshot() == msgs[2:]
    box.pop_head(msgs[2])
    assert box.snapshot() == msgs[3:]


def test_outbox_rejects_zero_capacity():
    with pytest.raises(ValueError):
        ObserverOutbox(capacity=0)


# -------------------------------------------------------------- supervised dial


def test_dial_retries_until_late_server_arrives():
    """A destination that comes up late is reached within the retry budget."""

    async def scenario():
        dest_addr = next_addr()
        src_alg = CopyForwardAlgorithm()
        src = await start(src_alg, NetEngineConfig(
            resilience=fast_resilience(connect_retries=8)))
        src_alg.set_downstreams([dest_addr])

        sink = SinkAlgorithm()
        connect_task = asyncio.ensure_future(src.connect(dest_addr))
        await asyncio.sleep(0.08)  # at least one attempt fails first
        dst = await start(sink, addr=dest_addr)
        ok = await connect_task
        src.start_source(app=1, payload_size=1000)
        await asyncio.sleep(0.3)
        await src.stop()
        await dst.stop()
        return ok, sink.received

    ok, received = run(scenario())
    assert ok
    assert received > 0


def test_dial_gives_up_after_retry_budget():
    async def scenario():
        telemetry = Telemetry()
        src = await start(BrokenLinkRecorder(), NetEngineConfig(
            telemetry=telemetry,
            resilience=fast_resilience(connect_retries=2)))
        dead = next_addr()  # nobody listens here
        ok = await src.connect(dead)
        failures = src._ins.n_connect_failures
        await src.stop()
        return ok, failures

    ok, failures = run(scenario())
    assert not ok
    assert failures == 2  # one per budgeted attempt


def test_concurrent_sends_coalesce_to_one_dial():
    async def scenario():
        sink = SinkAlgorithm()
        dst = await start(sink)
        src_alg = CopyForwardAlgorithm()
        src = await start(src_alg, NetEngineConfig(resilience=fast_resilience()))
        results = await asyncio.gather(*[src.connect(dst.node_id) for _ in range(8)])
        n_peers = len(src._peers)
        await src.stop()
        await dst.stop()
        return results, n_peers

    results, n_peers = run(scenario())
    assert all(results)
    assert n_peers == 1


def test_task_set_holds_only_unfinished_tasks():
    """Across a failed dial, a redial and a simultaneous-connect adopt
    the core's task set never keeps a finished task, and ``stop()``
    leaves it empty."""

    async def settled_tasks(engine):
        await asyncio.sleep(0.05)  # done-callbacks run a loop pass later
        return list(engine._tasks)

    async def scenario():
        a = await start(BrokenLinkRecorder(), NetEngineConfig(
            resilience=fast_resilience(connect_retries=2)))
        b_addr = next_addr()
        assert not await a.connect(b_addr)  # nobody listens yet: dial fails
        assert b_addr not in a.downstreams() and a._dialing == {}
        baseline = len(await settled_tasks(a))  # engine + report loops

        b = await start(BrokenLinkRecorder(), NetEngineConfig(resilience=fast_resilience()),
                        addr=b_addr)
        ok = await asyncio.gather(a.connect(b_addr), b.connect(a.node_id))  # redial + adopt
        assert ok == [True, True]
        await asyncio.sleep(0.2)  # let the losing socket close resolve
        for engine in (a, b):
            tasks = await settled_tasks(engine)
            assert all(not task.done() for task in tasks)
            assert len(tasks) == baseline  # a link adds callbacks, not tasks
        for engine in (a, b):
            await engine.stop()
            assert engine._tasks == {} and engine._dialing == {}

    run(scenario())


# ------------------------------------------------------- simultaneous connect


def test_simultaneous_connect_converges_on_one_link():
    """Both nodes dial each other at once; the lower NodeId's connection
    wins on both ends, no BROKEN_LINK fires, and data flows both ways."""

    async def scenario():
        alg_a, alg_b = BrokenLinkRecorder(), BrokenLinkRecorder()
        a = await start(alg_a, NetEngineConfig(resilience=fast_resilience()))
        b = await start(alg_b, NetEngineConfig(resilience=fast_resilience()))
        ok_a, ok_b = await asyncio.gather(a.connect(b.node_id), b.connect(a.node_id))
        await asyncio.sleep(0.2)  # let any losing socket close resolve

        assert ok_a and ok_b
        assert list(a._peers) == [b.node_id]
        assert list(b._peers) == [a.node_id]

        # Exercise the surviving link in both directions.
        ping = Message(MsgType.DATA, a.node_id, 1, b"x" * 100)
        pong = Message(MsgType.DATA, b.node_id, 1, b"y" * 100)
        a.send(ping, b.node_id)
        b.send(pong, a.node_id)
        await asyncio.sleep(0.3)
        received = (alg_a.received, alg_b.received)
        broken = (list(alg_a.broken), list(alg_b.broken))
        await a.stop()
        await b.stop()
        return received, broken

    received, broken = run(scenario())
    assert received == (1, 1)
    assert broken == ([], [])  # the tie-break is silent


# ------------------------------------------------------------- observer outbox


def test_status_reports_survive_observer_restart():
    async def scenario():
        observer_addr = next_addr()
        observer = ObserverServer(observer_addr, poll_interval=None)
        await observer.start()
        node = await start(
            SinkAlgorithm(),
            NetEngineConfig(resilience=fast_resilience(
                backoff_base=0.02, observer_backoff_max=0.05)),
            observer=observer,
        )
        await asyncio.sleep(0.1)
        assert node.node_id in observer.observer.alive

        await observer.stop()
        await asyncio.sleep(0.1)
        # Queued while the observer is down: parked in the outbox.
        node.send_to_observer(node._status_report())
        queued = len(node._uplink.outbox)

        restarted = ObserverServer(observer_addr, poll_interval=None)
        await restarted.start()
        await asyncio.sleep(0.6)  # backoff redial + flush
        alive = set(restarted.observer.alive)
        statuses = dict(restarted.observer.statuses)
        remaining = len(node._uplink.outbox)
        await node.stop()
        await restarted.stop()
        return queued, alive, statuses, remaining, node.node_id

    queued, alive, statuses, remaining, node_id = run(scenario())
    assert queued >= 1
    assert node_id in alive       # fresh BOOT re-introduced the node
    assert node_id in statuses    # the parked report was flushed
    assert remaining == 0


def test_outbox_overflow_drops_oldest_and_counts():
    async def scenario():
        observer = ObserverServer(next_addr(), poll_interval=None)
        await observer.start()
        telemetry = Telemetry()
        node = await start(
            SinkAlgorithm(),
            NetEngineConfig(telemetry=telemetry, resilience=fast_resilience(
                observer_outbox=4, observer_retry_budget=0)),
            observer=observer,
        )
        await asyncio.sleep(0.1)
        await observer.stop()
        await asyncio.sleep(0.1)
        for i in range(10):
            node.send_to_observer(Message.with_fields(
                MsgType.TRACE, node.node_id, 0, line=f"t{i}"))
        depth = len(node._uplink.outbox)
        drops = node._ins.n_observer_drops
        await node.stop()
        return depth, drops

    depth, drops = run(scenario())
    assert depth == 4
    assert drops == 6


# -------------------------------------------------------------- observer leases


def test_observer_lease_expires_a_silently_dead_node():
    """A node whose connection stays open but falls silent is swept out."""

    async def scenario():
        from repro.net.framing import hello_message, write_message

        observer = ObserverServer(next_addr(), poll_interval=0.05,
                                  lease_timeout=0.25)
        await observer.start()
        # A "ghost": boots like a node, then never speaks again — the
        # TCP connection stays open, so no loud error ever reaches the
        # observer (a partition looks exactly like this).
        ghost = next_addr()
        reader, writer = await asyncio.open_connection(
            observer.addr.ip, observer.addr.port)
        write_message(writer, hello_message(ghost))
        write_message(writer, Message.with_fields(
            MsgType.BOOT, ghost, 0, node=str(ghost)))
        await writer.drain()
        await asyncio.sleep(0.1)
        booted = ghost in observer.observer.alive

        await asyncio.sleep(0.5)  # well past the lease
        expired = ghost not in observer.observer.alive
        expiries = observer.observer.lease_expiries
        traces = [r for r in observer.observer.traces
                  if "lease-expired" in r.text]
        # The sweep closed our connection: draining past any pending
        # poll REQUESTs must reach EOF.
        await asyncio.wait_for(reader.read(), timeout=1.0)
        closed = reader.at_eof()
        writer.close()
        await observer.stop()
        return booted, expired, expiries, traces, closed

    booted, expired, expiries, traces, closed = run(scenario())
    assert booted
    assert expired
    assert expiries == 1
    assert len(traces) == 1
    assert closed


def test_observer_lease_is_renewed_by_status_traffic():
    """A live node's periodic reports keep its lease fresh indefinitely."""

    async def scenario():
        observer = ObserverServer(next_addr(), poll_interval=0.05,
                                  lease_timeout=0.25)
        await observer.start()
        node = await start(
            SinkAlgorithm(),
            NetEngineConfig(report_interval=0.1,
                            resilience=fast_resilience()),
            observer=observer,
        )
        await asyncio.sleep(0.8)  # several lease windows
        alive = node.node_id in observer.observer.alive
        expiries = observer.observer.lease_expiries
        await node.stop()
        await observer.stop()
        return alive, expiries

    alive, expiries = run(scenario())
    assert alive
    assert expiries == 0


# ----------------------------------------------------------- liveness watchdog


def test_probes_keep_an_idle_link_alive():
    """An idle but healthy link is probed, answered, and never torn down."""

    async def scenario():
        telemetry = Telemetry()
        res = fast_resilience(inactivity_timeout=0.1, probe_timeout=0.2)
        alg_a, alg_b = BrokenLinkRecorder(), BrokenLinkRecorder()
        a = await start(alg_a, NetEngineConfig(telemetry=telemetry, resilience=res))
        b = await start(alg_b, NetEngineConfig(
            resilience=fast_resilience(inactivity_timeout=0.1, probe_timeout=0.2)))
        await a.connect(b.node_id)
        await asyncio.sleep(0.8)  # several inactivity windows
        alive = b.node_id in a._peers and a.node_id in b._peers
        suspects = a._ins.n_suspects
        deaths = a._ins.n_inactivity_deaths
        broken = alg_a.broken + alg_b.broken
        await a.stop()
        await b.stop()
        return alive, suspects, deaths, broken

    alive, suspects, deaths, broken = run(scenario())
    assert alive
    assert suspects >= 1   # the watchdog did fire
    assert deaths == 0     # but every probe was answered
    assert broken == []
