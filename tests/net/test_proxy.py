"""Dedicated tests for the observer proxy (Section 2.2's firewall relay).

The proxy was previously only exercised incidentally from the engine
integration tests; these pin down its contract directly: upward frames
leave byte for byte as the node wrote them, in per-origin order, their
header ``sender`` naming the origin; downstream envelopes unwrap to
exactly the frame the observer sent; an upstream drop is redialed with
the members' BOOTs replayed while node connections stay up; a frame
that cannot be routed is dropped without stopping the ones behind it;
and ``stop()`` with live downstreams closes everything cleanly.
"""

import asyncio
import socket
import struct

import pytest

from repro.core.ids import NodeId
from repro.core.message import Message
from repro.core.msgtypes import MsgType
from repro.net.framing import (
    expect_hello,
    open_identified,
    read_message,
    wrap_proxy_down,
    write_message,
)
from repro.net.proxy import ObserverProxy
from repro.net.resilience import BackoffPolicy

from tests.portalloc import next_addr


def run(coro):
    return asyncio.run(coro)


class FakeObserver:
    """A minimal upstream endpoint: accepts the proxy's single connection."""

    def __init__(self):
        self.addr = None
        self.hello = None
        self.frames = []  # every upward frame, in arrival order
        self.writer = None
        self.connections = 0
        self._server = None
        self._connected = asyncio.Event()

    async def start(self):
        self._server = await asyncio.start_server(self._accept, "127.0.0.1", 0)
        self.addr = NodeId("127.0.0.1", self._server.sockets[0].getsockname()[1])

    async def _accept(self, reader, writer):
        self.hello = await expect_hello(reader)
        self.writer = writer
        self.connections += 1
        self._connected.set()
        try:
            while True:
                self.frames.append(await read_message(reader))
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()

    async def wait_connected(self):
        await asyncio.wait_for(self._connected.wait(), 5.0)

    def send_down(self, dest: NodeId, frame: Message):
        write_message(self.writer, wrap_proxy_down(self.addr, dest, frame))

    async def stop(self):
        if self.writer is not None:
            self.writer.close()
        self._server.close()
        await self._server.wait_closed()


async def wait_for(predicate, timeout=5.0):
    async with asyncio.timeout(timeout):
        while not predicate():
            await asyncio.sleep(0.01)


def trace(sender: NodeId, text: str) -> Message:
    return Message.with_fields(MsgType.TRACE, sender, 1, text=text)


async def proxy_setup():
    observer = FakeObserver()
    await observer.start()
    proxy = ObserverProxy(NodeId("127.0.0.1", 0), observer.addr)
    await proxy.start()
    await observer.wait_connected()
    return observer, proxy


class TestRelayUp:
    def test_envelopes_keep_order_and_label_origin(self):
        async def scenario():
            observer, proxy = await proxy_setup()
            a, b = next_addr(), next_addr()
            _, wa = await open_identified(proxy.addr, a)
            _, wb = await open_identified(proxy.addr, b)
            written = {a: [], b: []}
            for i in range(5):
                for node, writer, label in ((a, wa, "a"), (b, wb, "b")):
                    frame = trace(node, f"{label}{i}")
                    written[node].append(frame.pack())
                    write_message(writer, frame)
            await wa.drain()
            await wb.drain()
            await wait_for(lambda: len(observer.frames) == 10)

            assert observer.hello == proxy.addr
            assert proxy.relayed_up == 10
            # No envelope: each frame goes up as the bytes its node wrote,
            # its header sender naming the origin, per-origin FIFO kept.
            by_origin = {}
            for frame in observer.frames:
                assert frame.type == MsgType.TRACE
                by_origin.setdefault(frame.sender, []).append(frame.pack())
            assert by_origin == written
            wa.close()
            wb.close()
            await proxy.stop()
            await observer.stop()

        run(scenario())


class TestRelayDown:
    def test_downstream_unwraps_to_the_right_node(self):
        async def scenario():
            observer, proxy = await proxy_setup()
            a, b = next_addr(), next_addr()
            ra, wa = await open_identified(proxy.addr, a)
            rb, wb = await open_identified(proxy.addr, b)
            write_message(wa, trace(a, "hello"))  # ensure both registered
            write_message(wb, trace(b, "hello"))
            await wait_for(lambda: len(observer.frames) == 2)

            observer.send_down(a, trace(observer.addr, "for-a"))
            observer.send_down(b, trace(observer.addr, "for-b"))
            got_a = await asyncio.wait_for(read_message(ra), 5.0)
            got_b = await asyncio.wait_for(read_message(rb), 5.0)
            assert got_a.fields()["text"] == "for-a"
            assert got_b.fields()["text"] == "for-b"
            assert proxy.relayed_down == 2
            wa.close()
            wb.close()
            await proxy.stop()
            await observer.stop()

        run(scenario())

    def test_unknown_destination_is_dropped(self):
        async def scenario():
            observer, proxy = await proxy_setup()
            a = next_addr()
            ra, wa = await open_identified(proxy.addr, a)
            write_message(wa, trace(a, "hello"))
            await wait_for(lambda: len(observer.frames) == 1)

            observer.send_down(next_addr(), trace(observer.addr, "nobody-home"))
            observer.send_down(a, trace(observer.addr, "for-a"))
            got = await asyncio.wait_for(read_message(ra), 5.0)
            assert got.fields()["text"] == "for-a"  # dropped frame never arrives
            assert proxy.relayed_down == 1
            wa.close()
            await proxy.stop()
            await observer.stop()

        run(scenario())


class TestUpstreamRedial:
    def test_redial_replays_boots_and_keeps_relaying(self):
        """The relay-mode twin of the aggregation redial test: a lost
        upstream is redialed, the member's BOOT is replayed byte-identical
        first, relaying resumes, and the node's own connection survives."""

        async def scenario():
            observer = FakeObserver()
            await observer.start()
            proxy = ObserverProxy(NodeId("127.0.0.1", 0), observer.addr,
                                  backoff=BackoffPolicy(base=0.01, maximum=0.05))
            await proxy.start()
            await observer.wait_connected()
            a = next_addr()
            _, wa = await open_identified(proxy.addr, a)
            boot = Message.with_fields(MsgType.BOOT, a, 0, node=str(a))
            write_message(wa, boot)
            write_message(wa, trace(a, "before"))
            await wait_for(lambda: len(observer.frames) == 2)

            # Kill the observer link hard (RST, not a polite FIN): the
            # proxy must notice the loss, not just a half-closed stream.
            sock = observer.writer.get_extra_info("socket")
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            observer.writer.close()
            await wait_for(lambda: observer.connections == 2)
            await wait_for(lambda: proxy.boots_replayed == 1)
            write_message(wa, trace(a, "after"))
            await wa.drain()
            await wait_for(lambda: len(observer.frames) == 4)

            replayed, after = observer.frames[2:]
            assert replayed.pack() == boot.pack()
            assert replayed.sender == a
            assert after.sender == a and after.fields()["text"] == "after"
            assert proxy.upstream_reconnects == 1
            assert not wa.is_closing()
            wa.close()
            await proxy.stop()
            await observer.stop()

        run(scenario())

    def test_relay_proxy_redials_a_restarted_observer(self):
        """After an observer restart the members behind a relay proxy
        reappear in the new observer's view without reconnecting."""

        async def scenario():
            from repro.net.observer_server import ObserverServer

            server_addr = next_addr()
            server = ObserverServer(server_addr, poll_interval=None)
            await server.start()
            proxy = ObserverProxy(NodeId("127.0.0.1", 0), server_addr,
                                  backoff=BackoffPolicy(base=0.01, maximum=0.05))
            await proxy.start()
            node = next_addr()
            _, writer = await open_identified(proxy.addr, node)
            write_message(writer, Message.with_fields(MsgType.BOOT, node, 0, node=str(node)))
            await wait_for(lambda: node in server.observer.alive)

            await server.stop()
            restarted = ObserverServer(server_addr, poll_interval=None)
            await restarted.start()
            await wait_for(lambda: node in restarted.observer.alive)
            assert not writer.is_closing()
            writer.close()
            await proxy.stop()
            await restarted.stop()

        run(scenario())


class TestBadFrames:
    def test_bad_envelope_does_not_stop_later_delivery(self):
        """An envelope the proxy cannot route is dropped and counted; the
        upstream reader keeps delivering what follows."""

        async def scenario():
            observer, proxy = await proxy_setup()
            a = next_addr()
            ra, wa = await open_identified(proxy.addr, a)
            write_message(wa, trace(a, "hello"))
            await wait_for(lambda: len(observer.frames) == 1)

            # Routing metadata without a ``dest``.
            meta = b'{"origin":"%s"}' % str(a).encode()
            inner = trace(observer.addr, "lost").pack()
            write_message(observer.writer, Message(
                MsgType.PROXY, observer.addr, 0,
                struct.pack("!I", len(meta)) + meta + inner))
            observer.send_down(a, trace(observer.addr, "for-a"))
            got = await asyncio.wait_for(read_message(ra), 5.0)
            assert got.fields()["text"] == "for-a"
            assert proxy._uplink.bad_frames == 1
            assert proxy.relayed_down == 1
            wa.close()
            await proxy.stop()
            await observer.stop()

        run(scenario())


class TestStop:
    def test_stop_with_live_downstreams_closes_cleanly(self):
        async def scenario():
            observer, proxy = await proxy_setup()
            addrs = [next_addr() for _ in range(3)]
            conns = [await open_identified(proxy.addr, addr) for addr in addrs]
            for (_, writer), addr in zip(conns, addrs):
                write_message(writer, trace(addr, "hello"))
            await wait_for(lambda: proxy.relayed_up == 3)

            await proxy.stop()
            # every downstream sees EOF, not a stuck connection
            for reader, _ in conns:
                with pytest.raises((asyncio.IncompleteReadError, ConnectionError)):
                    await asyncio.wait_for(read_message(reader), 5.0)
            # the listener is gone too
            with pytest.raises(OSError):
                await asyncio.wait_for(
                    asyncio.open_connection(proxy.addr.ip, proxy.addr.port), 2.0
                )
            await observer.stop()

        run(scenario())

    def test_start_failure_leaves_no_listener(self):
        async def scenario():
            # no observer at this address: start() must raise AND release
            # the server socket it bound first (port-0 identity ordering).
            proxy = ObserverProxy(NodeId("127.0.0.1", 0), next_addr())
            with pytest.raises(OSError):
                await proxy.start()
            assert proxy._server is None
            assert not proxy._running

        run(scenario())


class TestLiveObserverIntegration:
    def test_proxied_nodes_reach_a_real_observer(self):
        async def scenario():
            from repro.net.observer_server import ObserverServer

            server = ObserverServer(NodeId("127.0.0.1", 0), poll_interval=0.2)
            await server.start()
            proxy = ObserverProxy(NodeId("127.0.0.1", 0), server.addr)
            await proxy.start()
            node = next_addr()
            _, writer = await open_identified(proxy.addr, node)
            write_message(
                writer,
                Message.with_fields(MsgType.BOOT, node, 0, node=str(node)),
            )
            await wait_for(lambda: node in server.observer.alive)
            assert server.observer.alive  # booted through the proxy
            writer.close()
            await proxy.stop()
            await server.stop()

        run(scenario())
