"""Aggregation-mode tests for the observer proxy.

Relay mode is pinned down in :mod:`tests.net.test_proxy`; this module
covers the reducing-node behavior that turns proxies into an observer
tree: statuses absorbed instead of relayed, metric roll-ups flushed as
deltas, full-resync epochs after an upstream redial (with BOOT replay),
departed members purged without stale series, outbox overflow followed
by a clean resync, and two-level tree composition.
"""

import asyncio
import socket
import struct

from repro.core.ids import NodeId
from repro.core.message import Message
from repro.core.msgtypes import MsgType
from repro.net.framing import (
    expect_hello,
    open_identified,
    read_message,
    write_message,
)
from repro.net.proxy import ObserverProxy
from repro.net.resilience import BackoffPolicy
from repro.telemetry import Telemetry
from repro.telemetry.metrics import MetricsRegistry, merge_snapshots

from tests.portalloc import next_addr


def run(coro):
    return asyncio.run(coro)


async def wait_for(predicate, timeout=5.0):
    async with asyncio.timeout(timeout):
        while not predicate():
            await asyncio.sleep(0.01)


class FakeParent:
    """An upstream endpoint that records frames and survives reconnects.

    Unlike the single-shot FakeObserver in test_proxy.py this one keeps
    accepting (redial tests need a second connection) and can pause its
    listener to hold the proxy in its retry loop.
    """

    def __init__(self):
        self.addr = None
        self.frames = []  # every frame, in arrival order
        self.writer = None
        self.connections = 0
        self._server = None

    @property
    def aggs(self):
        return [f for f in self.frames if f.type == MsgType.W_AGG]

    @property
    def forwarded(self):
        """Children's frames the proxy passed on unchanged."""
        return [f for f in self.frames if f.type != MsgType.W_AGG]

    async def start(self):
        self._server = await asyncio.start_server(self._accept, "127.0.0.1", 0)
        self.addr = NodeId("127.0.0.1", self._server.sockets[0].getsockname()[1])

    async def _accept(self, reader, writer):
        await expect_hello(reader)
        self.writer = writer
        self.connections += 1
        try:
            while True:
                self.frames.append(await read_message(reader))
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            pass
        finally:
            writer.close()

    def kill_connection(self):
        """RST the proxy's upstream link (hard loss, not a polite FIN)."""
        sock = self.writer.get_extra_info("socket")
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        self.writer.close()

    async def pause(self):
        """Stop accepting and RST the proxy's link, so the redialing proxy
        stays in its backoff loop.

        The accepted connection is closed before ``wait_closed()``: since
        3.12.1 that call waits for every accepted connection, so awaiting
        it with the proxy's link still open would wait on the test itself.
        """
        self._server.close()
        self.kill_connection()
        await self._server.wait_closed()

    async def resume(self):
        self._server = await asyncio.start_server(
            self._accept, "127.0.0.1", self.addr.port
        )

    async def stop(self):
        if self.writer is not None:
            self.writer.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()


def make_snapshot(node: str, sent: int) -> dict:
    """A tiny single-counter registry snapshot labelled with ``node``."""
    reg = MetricsRegistry()
    counter = reg.counter("test_sent_total", "messages sent", ("node",))
    counter.labels(node=node).inc(sent)
    return reg.snapshot()


def status_message(node: NodeId, sent: int) -> Message:
    return Message.with_fields(
        MsgType.STATUS, node, 0, node=str(node),
        apps=[1], metrics=make_snapshot(str(node), sent),
    )


def counter_value(snapshot: dict, node: str) -> float:
    for entry in snapshot.get("test_sent_total", {}).get("series", []):
        if entry["labels"].get("node") == node:
            return entry["value"]
    return 0.0


async def drain_requests(reader):
    """Consume downward frames, ignoring the aggregator's status polls."""
    try:
        while True:
            await read_message(reader)
    except (asyncio.IncompleteReadError, ConnectionError, OSError,
            asyncio.CancelledError):
        pass


async def agg_setup(**kwargs):
    parent = FakeParent()
    await parent.start()
    proxy = ObserverProxy(
        NodeId("127.0.0.1", 0), parent.addr,
        flush_interval=kwargs.pop("flush_interval", 0.05),
        backoff=BackoffPolicy(base=0.01, maximum=0.05),
        **kwargs,
    )
    await proxy.start()
    await wait_for(lambda: parent.connections == 1)
    return parent, proxy


class TestRollup:
    def test_status_absorbed_and_rolled_up(self):
        async def scenario():
            parent, proxy = await agg_setup()
            node = next_addr()
            reader, writer = await open_identified(proxy.addr, node)
            pump = asyncio.ensure_future(drain_requests(reader))
            write_message(writer, status_message(node, sent=7))
            await wait_for(lambda: any(
                f.fields().get("statuses") for f in parent.aggs))

            # The raw STATUS never crossed the root socket.
            assert parent.forwarded == []
            # The first flush of an epoch is always a full replacement.
            assert parent.aggs[0].fields()["full"] is True
            frame = next(f for f in parent.aggs if f.fields().get("statuses"))
            fields = frame.fields()
            assert str(node) in fields["members"]
            rolled = fields["statuses"][str(node)]
            assert rolled["node"] == str(node)
            assert "metrics" not in rolled  # stripped onto the delta path
            assert counter_value(fields["metrics"], str(node)) == 7
            pump.cancel()
            writer.close()
            await proxy.stop()
            await parent.stop()

        run(scenario())

    def test_delta_stream_carries_only_changes(self):
        async def scenario():
            parent, proxy = await agg_setup()
            node = next_addr()
            reader, writer = await open_identified(proxy.addr, node)
            pump = asyncio.ensure_future(drain_requests(reader))
            write_message(writer, status_message(node, sent=10))
            await wait_for(lambda: any(
                counter_value(f.fields().get("metrics", {}), str(node)) == 10
                for f in parent.aggs))

            write_message(writer, status_message(node, sent=13))
            await wait_for(lambda: any(
                counter_value(f.fields().get("metrics", {}), str(node)) == 3
                for f in parent.aggs))
            delta_frame = next(
                f for f in parent.aggs
                if counter_value(f.fields().get("metrics", {}), str(node)) == 3)
            assert delta_frame.fields()["full"] is False

            # Replaying the flushes in order (replace on full, merge on
            # delta) reconstructs the child's current value exactly.
            acc = {}
            for frame in parent.aggs:
                fields = frame.fields()
                delta = fields.get("metrics") or {}
                if not delta:
                    continue
                acc = delta if fields["full"] else merge_snapshots([acc, delta])
            assert counter_value(acc, str(node)) == 13
            pump.cancel()
            writer.close()
            await proxy.stop()
            await parent.stop()

        run(scenario())

    def test_quiet_flushes_carry_no_metrics(self):
        async def scenario():
            parent, proxy = await agg_setup()
            node = next_addr()
            reader, writer = await open_identified(proxy.addr, node)
            pump = asyncio.ensure_future(drain_requests(reader))
            write_message(writer, status_message(node, sent=5))
            # Wait until the value has been flushed and acknowledged.
            await wait_for(lambda: any(
                counter_value(f.fields().get("metrics", {}), str(node)) == 5
                for f in parent.aggs))
            baseline = len(parent.aggs)
            await wait_for(lambda: len(parent.aggs) >= baseline + 3)
            quiet = parent.aggs[baseline:baseline + 3]
            # No new activity: deltas are empty, the frames are pure
            # membership/lease heartbeats.
            assert all(not f.fields().get("metrics") for f in quiet)
            pump.cancel()
            writer.close()
            await proxy.stop()
            await parent.stop()

        run(scenario())


class TestUpstreamRedial:
    def test_redial_replays_boots_and_resyncs_full(self):
        async def scenario():
            parent, proxy = await agg_setup()
            node = next_addr()
            reader, writer = await open_identified(proxy.addr, node)
            pump = asyncio.ensure_future(drain_requests(reader))
            boot = Message.with_fields(MsgType.BOOT, node, 0, node=str(node))
            write_message(writer, boot)
            write_message(writer, status_message(node, sent=4))
            await wait_for(lambda: any(
                counter_value(f.fields().get("metrics", {}), str(node)) == 4
                for f in parent.aggs))
            # BOOT was relayed immediately (bootstrap must not wait a flush).
            assert [f.pack() for f in parent.forwarded] == [boot.pack()]

            frames_before_kill = len(parent.frames)
            parent.kill_connection()
            await wait_for(lambda: parent.connections == 2)
            await wait_for(lambda: proxy.boots_replayed == 1)
            await wait_for(lambda: any(
                f.fields().get("full") and f.fields().get("metrics")
                for f in parent.frames[frames_before_kill:]
                if f.type == MsgType.W_AGG))

            # The replayed BOOT is byte-identical to the original.
            replays = parent.forwarded[1:]
            assert any(f.pack() == boot.pack() for f in replays)
            # The resync flush re-carries the full accumulated snapshot
            # even though nothing changed since the last ack.
            resync = next(
                f for f in parent.frames[frames_before_kill:]
                if f.type == MsgType.W_AGG and f.fields().get("full")
                and f.fields().get("metrics"))
            assert counter_value(resync.fields()["metrics"], str(node)) == 4
            assert proxy.upstream_reconnects == 1
            pump.cancel()
            writer.close()
            await proxy.stop()
            await parent.stop()

        run(scenario())

    def test_outbox_overflow_drops_oldest_then_resyncs(self):
        async def scenario():
            parent, proxy = await agg_setup(outbox_capacity=2)
            node = next_addr()
            reader, writer = await open_identified(proxy.addr, node)
            pump = asyncio.ensure_future(drain_requests(reader))
            write_message(writer, status_message(node, sent=9))
            await wait_for(lambda: any(
                counter_value(f.fields().get("metrics", {}), str(node)) == 9
                for f in parent.aggs))

            # Take the upstream fully down: no listener, so the proxy
            # sits in its redial loop while children keep sending.
            await parent.pause()
            await wait_for(lambda: not proxy._uplink.connected)
            for i in range(5):
                write_message(writer, Message.with_fields(
                    MsgType.TRACE, node, 1, text=f"t{i}"))
            await writer.drain()
            # Relay-path frames pile into the bounded outbox; capacity 2
            # means the three oldest are evicted.
            await wait_for(lambda: proxy.outbox_drops == 3)

            frames_before = len(parent.frames)
            await parent.resume()
            await wait_for(lambda: parent.connections == 2)
            await wait_for(lambda: any(
                f.type == MsgType.W_AGG and f.fields().get("full")
                and f.fields().get("metrics")
                for f in parent.frames[frames_before:]))
            # The two surviving (newest) traces were delivered after the
            # redial, in order ...
            texts = [f.fields()["text"] for f in parent.forwarded
                     if f.type == MsgType.TRACE]
            assert texts == ["t3", "t4"]
            # ... and the delta stream resynced with the full snapshot,
            # so the drops cannot have corrupted the metric view.
            resync = next(
                f for f in parent.frames[frames_before:]
                if f.type == MsgType.W_AGG and f.fields().get("full")
                and f.fields().get("metrics"))
            assert counter_value(resync.fields()["metrics"], str(node)) == 9
            pump.cancel()
            writer.close()
            await proxy.stop()
            await parent.stop()

        run(scenario())


class TestChildDeath:
    def test_departed_child_leaves_no_stale_series(self):
        async def scenario():
            parent, proxy = await agg_setup()
            a, b = next_addr(), next_addr()
            ra, wa = await open_identified(proxy.addr, a)
            rb, wb = await open_identified(proxy.addr, b)
            pumps = [asyncio.ensure_future(drain_requests(r)) for r in (ra, rb)]
            write_message(wa, status_message(a, sent=3))
            write_message(wb, status_message(b, sent=8))
            await wait_for(lambda: not proxy._resync
                           and counter_value(proxy._acked_merged, str(a)) == 3
                           and counter_value(proxy._acked_merged, str(b)) == 8)

            wa.close()
            await wait_for(lambda: any(
                str(a) in f.fields().get("departed", []) for f in parent.aggs))
            # The aggregator's own caches are clean...
            assert str(a) not in proxy._child_status
            assert str(a) not in proxy._child_metrics
            # ...and the vanished series forces a full-resync flush whose
            # replacement snapshot no longer carries the dead child but
            # still carries the survivor.
            await wait_for(lambda: any(
                f.fields().get("full") and f.fields().get("metrics")
                and counter_value(f.fields()["metrics"], str(a)) == 0
                and counter_value(f.fields()["metrics"], str(b)) == 8
                for f in parent.aggs))
            for pump in pumps:
                pump.cancel()
            wb.close()
            await proxy.stop()
            await parent.stop()

        run(scenario())


class TestTraceForwarding:
    def test_local_tracer_events_ride_the_flush_under_budget(self):
        async def scenario():
            telemetry = Telemetry(tracing=True)
            parent, proxy = await agg_setup(telemetry=telemetry, trace_budget=3)
            for i in range(10):
                telemetry.tracer.record(float(i), "n1", "forward", f"tid{i}")
            await wait_for(lambda: any(f.fields().get("traces") for f in parent.aggs))
            frame = next(f for f in parent.aggs if f.fields().get("traces"))
            traces = frame.fields()["traces"]
            assert len(traces) == 3  # per-flush budget enforced
            assert frame.fields()["trace_dropped"] == 7
            assert traces[0]["trace_id"] == "tid0"
            await proxy.stop()
            await parent.stop()

        run(scenario())


class TestTwoLevelTree:
    def test_nested_aggregators_roll_up_to_the_root(self):
        async def scenario():
            root = FakeParent()
            await root.start()
            mid = ObserverProxy(
                NodeId("127.0.0.1", 0), root.addr, flush_interval=0.05,
                backoff=BackoffPolicy(base=0.01, maximum=0.05),
            )
            await mid.start()
            leaf = ObserverProxy(
                NodeId("127.0.0.1", 0), mid.addr, flush_interval=0.05,
                backoff=BackoffPolicy(base=0.01, maximum=0.05),
            )
            await leaf.start()
            node = next_addr()
            reader, writer = await open_identified(leaf.addr, node)
            pump = asyncio.ensure_future(drain_requests(reader))
            write_message(writer, status_message(node, sent=21))

            # The node's status and metrics surface at the root, folded
            # through two aggregation levels; the leaf's W_AGG frames were
            # absorbed by the mid proxy, never forwarded verbatim.
            await wait_for(lambda: any(
                str(node) in f.fields().get("members", [])
                and f.fields().get("statuses", {}).get(str(node))
                for f in root.aggs))
            assert all(f.sender == mid.addr for f in root.aggs)
            await wait_for(lambda: any(
                counter_value(f.fields().get("metrics", {}), str(node)) == 21
                for f in root.aggs))
            pump.cancel()
            writer.close()
            await leaf.stop()
            await mid.stop()
            await root.stop()

        run(scenario())
