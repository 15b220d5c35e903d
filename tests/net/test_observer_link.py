"""Both ends of the observer link: written once, and bad frames never kill them.

:class:`~repro.net.observer_link.ObserverHub` is the listening end of
the root observer and of every proxy, :class:`ObserverUplink` the dialing
end of every engine and every proxy.  This module pins down that neither
end is re-implemented by its users, that an undecodable frame is dropped
and counted instead of costing its connection, and fuzzes the ``W_AGG``,
``PROXY``, ``STATUS`` and ``FLOW_QUERY`` decoders through both
downstream dispatches and the uplink's reader: no exception escapes, no
connection is lost, nothing a proxy accepts fails at its parent, and a
roll-up gets the same verdict at the root and at a proxy.
"""

import ast
import asyncio
import json
import struct
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

import pytest

import repro.net
from repro.algorithms.forwarding import SinkAlgorithm
from repro.core.ids import NodeId
from repro.core.message import Message
from repro.core.msgtypes import MsgType
from repro.net.engine import AsyncioEngine
from repro.net.framing import (
    hello_message,
    open_identified,
    parse_frames,
    wrap_proxy_down,
    write_message,
)
from repro.net.observer_link import ObserverUplink
from repro.net.observer_server import ObserverServer
from repro.net.proxy import ObserverProxy
from repro.net.resilience import BackoffPolicy
from repro.observer.observer import decode_rollup
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracing import trace_id

from tests.cluster.helpers import FakeWriter, fed_reader
from tests.portalloc import next_addr

NET = Path(repro.net.__file__).parent


def run(coro):
    return asyncio.run(coro)


async def wait_for(predicate, timeout=5.0):
    async with asyncio.timeout(timeout):
        while not predicate():
            await asyncio.sleep(0.01)


# ------------------------------------------------------------ written once


def _definers(classes: set[str]) -> dict[str, list[str]]:
    """method name -> the classes (of ``classes``) under ``repro.net`` defining it."""
    found: dict[str, list[str]] = {}
    for path in sorted(NET.glob("*.py")):
        for cls in ast.parse(path.read_text()).body:
            if isinstance(cls, ast.ClassDef) and cls.name in classes:
                for node in cls.body:
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        found.setdefault(node.name, []).append(cls.name)
    return found


def test_the_downstream_half_is_defined_once():
    """Accept, route learning and route-down live in the hub alone."""
    found = _definers({"ObserverHub", "ObserverServer", "ObserverProxy"})
    shared = {"_bind", "_accept", "_take", "_learn_route", "_route_down"}
    assert {name: found.get(name) for name in shared} == {
        name: ["ObserverHub"] for name in shared
    }


def test_the_uplink_is_the_one_supervised_observer_link():
    """Neither user keeps its own dial, reader, outbox or redial loop."""
    found = _definers({"AsyncioEngine", "ObserverProxy"})
    retired = {
        "_connect_observer", "_observer_reader", "_observer_loop",
        "_drop_observer_writer", "_send_up", "_upstream_reader",
        "_upstream_supervisor", "_on_reconnected",
    }
    assert not retired & set(found)
    for name in ("engine.py", "proxy.py", "observer_server.py"):
        source = (NET / name).read_text()
        assert "ObserverOutbox(" not in source, name
    # the engine still dials peers; the proxy dials nothing itself
    assert "open_identified" not in (NET / "proxy.py").read_text()


# ----------------------------------------------------------------- bad frames


def test_undecodable_status_does_not_mark_the_node_down():
    async def scenario():
        server = ObserverServer(NodeId("127.0.0.1", 0), poll_interval=None)
        await server.start()
        node = next_addr()
        _, writer = await open_identified(server.addr, node)
        write_message(writer, Message.with_fields(MsgType.BOOT, node, 0, node=str(node)))
        write_message(writer, Message(MsgType.STATUS, node, 0, b"\xffnot json"))
        write_message(writer, Message.with_fields(MsgType.TRACE, node, 1, text="still here"))
        await writer.drain()
        await wait_for(lambda: server.observer.traces.matching("still here"))
        alive = node in server.observer.alive
        faults = [r.text for r in server.observer.traces if r.text.startswith("control-fault")]
        writer.close()
        await server.stop()
        return alive, server.bad_frames, faults

    alive, bad_frames, faults = run(scenario())
    assert alive
    assert bad_frames == 1
    assert len(faults) == 1 and f"type={int(MsgType.STATUS)}" in faults[0]


def test_uplink_gives_up_after_its_retry_budget():
    async def scenario():
        tasks: dict[str, asyncio.Task] = {}

        def launch(coro, name):
            tasks[name.rsplit("/", 1)[1]] = asyncio.ensure_future(coro)

        server = ObserverServer(NodeId("127.0.0.1", 0), poll_interval=None)
        await server.start()
        uplink = ObserverUplink(
            server.addr, launch=launch,
            on_frame=lambda msg: None, on_connected=lambda: [],
            backoff=BackoffPolicy(base=0.01, maximum=0.02), capacity=2, retry_budget=2,
        )
        await uplink.start(next_addr())
        await server.stop()
        await asyncio.wait_for(tasks["uplink"], 2.0)  # two failed redials, then done
        for i in range(3):
            uplink.push(Message.with_fields(MsgType.TRACE, uplink.identity, 0, i=i))
        uplink.close()
        await asyncio.gather(*tasks.values(), return_exceptions=True)
        return uplink

    uplink = run(scenario())
    assert not uplink.connected
    assert uplink.reconnects == 0
    assert len(uplink.outbox) == 2 and uplink.drops == 1


# -------------------------------------------------------- one ingestion route

#: proxies between the node and the root, node side last: ``None`` is a
#: relay, a number an aggregator flushing at that interval
LAYOUTS = {
    "direct": [],
    "relay": [None],
    "aggregating": [0.1],
    "relay-over-relay": [None, None],
}


class RouteRecorder(SinkAlgorithm):
    """Counts what the observer plane delivered down to the node."""

    def __init__(self):
        super().__init__()
        self.boot_replies = 0
        self.requests = 0

    def on_bootstrapped(self) -> None:
        self.boot_replies += 1

    def on_status_request(self, msg):
        self.requests += 1
        return super().on_status_request(msg)


@pytest.mark.parametrize("layout", list(LAYOUTS))
def test_every_layout_reaches_the_root_by_one_route(layout):
    """Whatever sits between a node and the root, the root ingests the
    node's own frames and reaches it back through its route table."""

    async def scenario():
        server = ObserverServer(NodeId("127.0.0.1", 0), poll_interval=0.1)
        await server.start()
        arrived = []  # the wire bytes of every frame reaching the root
        take = server._take
        server._take = lambda child, msg: (arrived.append(msg.pack()), take(child, msg))
        proxies, upstream = [], server.addr
        for flush_interval in LAYOUTS[layout]:
            proxy = ObserverProxy(NodeId("127.0.0.1", 0), upstream,
                                  flush_interval=flush_interval)
            await proxy.start()
            proxies.append(proxy)
            upstream = proxy.addr
        alg = RouteRecorder()
        engine = AsyncioEngine(next_addr(), alg, observer_addr=upstream)
        await engine.start()
        node = engine.node_id
        about = Message(MsgType.DATA, node, 1, b"payload", seq=5)
        alg.trace("one route", app=1, about=about)
        wrote = Message.with_fields(MsgType.TRACE, node, 1, text="one route",
                                    trace_id=trace_id(about)).pack()
        try:
            await wait_for(lambda: node in server.observer.alive
                           and node in server.observer.statuses
                           and alg.boot_replies and alg.requests
                           and wrote in arrived)
        finally:
            await engine.stop()
            for proxy in reversed(proxies):
                await proxy.stop()
            await server.stop()
        return node, server.observer.traces.for_trace(trace_id(about))

    node, records = run(scenario())
    assert [(record.node, record.text) for record in records] == [(node, "one route")]


# ---------------------------------------------------------------------- fuzz

NODES = ["10.0.0.1:7000", "10.0.0.2:7001", "10.0.0.3:7002"]
CHILD = NodeId("10.0.0.9", 7009)
SENDER = NodeId("10.0.0.8", 7008)

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
NODE_TEXT = st.one_of(*[st.sampled_from(NODES)] * 3, st.text(max_size=8), st.integers())


def mostly(valid):
    """``valid`` three times in four, any JSON value otherwise: frames
    decode deep enough to reach the later fields."""
    return st.one_of(valid, valid, valid, JSON)


def _snapshot(node: str, sent: int) -> dict:
    reg = MetricsRegistry()
    reg.counter("test_sent_total", "messages sent", ("node",)).labels(node=node).inc(sent)
    return reg.snapshot()


SNAPSHOT = st.builds(_snapshot, st.sampled_from(NODES), st.integers(0, 100))
STATUS_FIELDS = st.fixed_dictionaries({"node": NODE_TEXT}, optional={
    "upstreams": mostly(st.lists(NODE_TEXT, max_size=2)),
    "recv_buffers": mostly(st.dictionaries(NODE_TEXT, st.integers(0, 9), max_size=2)),
    "apps": mostly(st.lists(st.integers(0, 9), max_size=2)),
    "metrics": mostly(SNAPSHOT),
})
TRACE_EVENT = st.fixed_dictionaries({}, optional={
    "time": mostly(st.floats(0, 10)), "node": NODE_TEXT, "event": st.just("forward"),
    "trace_id": st.text(max_size=6), "app": mostly(st.integers(0, 9)),
})
BOOT_HEX = Message.with_fields(MsgType.BOOT, SENDER, 0, node=str(SENDER)).pack().hex()
AGG_FIELDS = st.fixed_dictionaries({}, optional={
    "members": mostly(st.lists(NODE_TEXT, max_size=3)),
    "departed": mostly(st.lists(NODE_TEXT, max_size=3)),
    "statuses": mostly(st.dictionaries(NODE_TEXT, mostly(STATUS_FIELDS), max_size=2)),
    "metrics": mostly(SNAPSHOT),
    "boots": mostly(st.dictionaries(NODE_TEXT, mostly(st.just(BOOT_HEX)), max_size=2)),
    "traces": mostly(st.lists(mostly(TRACE_EVENT), max_size=3)),
    "trace_dropped": mostly(st.integers(0, 9)),
    "full": mostly(st.booleans()),
})


def _json_frame(type_: int, fields) -> Message:
    return Message(type_, SENDER, 0, json.dumps(fields).encode())


def _envelope(meta, inner: bytes) -> Message:
    meta_bytes = json.dumps(meta).encode()
    return Message(MsgType.PROXY, SENDER, 0,
                   struct.pack("!I", len(meta_bytes)) + meta_bytes + inner)


INNER = st.sampled_from([
    Message.with_fields(MsgType.BOOT, SENDER, 0, node=str(SENDER)).pack(),
    Message.with_fields(MsgType.TRACE, SENDER, 1, text="inner").pack(),
]) | st.binary(max_size=30)
META = mostly(st.fixed_dictionaries({}, optional={"origin": NODE_TEXT, "dest": NODE_TEXT}))
ENVELOPE = st.builds(_envelope, META, INNER) | st.builds(
    lambda payload: Message(MsgType.PROXY, SENDER, 0, payload), st.binary(max_size=12))
FRAME = st.one_of(
    st.builds(_json_frame, st.just(MsgType.W_AGG), mostly(AGG_FIELDS)),
    st.builds(_json_frame, st.just(MsgType.STATUS), mostly(STATUS_FIELDS)),
    st.builds(_json_frame, st.just(MsgType.FLOW_QUERY),
              mostly(st.fixed_dictionaries({"trace_id": JSON}))),
    ENVELOPE,
    st.builds(lambda t, p: Message(t, SENDER, 0, p),
              st.sampled_from([MsgType.W_AGG, MsgType.STATUS, MsgType.FLOW_QUERY]),
              st.binary(max_size=20)),
)
FUZZ = settings(max_examples=150, deadline=None)


class StubWriter(FakeWriter):
    """An in-memory stream writer that also takes ``write_batch`` bursts."""

    def writelines(self, parts) -> None:
        for part in parts:
            self.write(part)

    def frames(self) -> list[Message]:
        return parse_frames(bytes(self.written))[0]


def _fed(frames: list[Message]) -> asyncio.StreamReader:
    return fed_reader(b"".join(frame.pack() for frame in frames))


def _hub(kind: str):
    if kind == "root":
        hub = ObserverServer(NodeId("127.0.0.1", 1), poll_interval=None)
    else:
        hub = ObserverProxy(NodeId("127.0.0.1", 1), NodeId("127.0.0.1", 2),
                            flush_interval=0.1 if kind == "aggregator" else None)
    hub._running = True
    return hub


SENTINEL = Message.with_fields(MsgType.TRACE, CHILD, 1, text="sentinel")


def _sentinel_arrived(hub) -> bool:
    if isinstance(hub, ObserverServer):
        return bool(hub.observer.traces.matching("sentinel"))
    # A proxy forwards the child's frame unchanged: the very bytes.
    return hub._uplink.outbox.snapshot()[-1].pack() == SENTINEL.pack()


async def _feed(hub, frames: list[Message]) -> None:
    """Run ``frames`` through the hub's read loop on one child connection."""
    writer = StubWriter()
    await hub._accept(_fed([hello_message(CHILD), *frames, SENTINEL]), writer)
    assert _sentinel_arrived(hub)  # the loop read on to the end: not dropped
    assert writer.closed  # ...and only then closed, at EOF


@given(frames=st.lists(FRAME, max_size=6))
@FUZZ
def test_fuzz_root_dispatch_survives_any_frame(frames):
    async def scenario():
        root = _hub("root")
        await _feed(root, frames)
        assert root.frames_in == len(frames) + 1

    run(scenario())


ROLLUP = st.builds(_json_frame, st.just(MsgType.W_AGG), AGG_FIELDS)


@given(frames=st.lists(FRAME | ROLLUP, max_size=6),
       kind=st.sampled_from(["relay", "aggregator"]))
@example(frames=[_json_frame(MsgType.W_AGG, {"departed": ["not-a-node"]})], kind="aggregator")
@example(frames=[_json_frame(MsgType.W_AGG, {"statuses": {"5": {"node": NODES[0]}}})],
         kind="aggregator")
@settings(max_examples=300, deadline=None)
def test_fuzz_proxy_dispatch_survives_and_never_poisons_its_parent(frames, kind):
    async def scenario():
        proxy = _hub(kind)
        await _feed(proxy, frames)
        upstream = StubWriter()
        proxy._uplink._writer = upstream
        if proxy.aggregating:
            assert await proxy.flush()
        else:
            assert await proxy._uplink._flush(upstream)
        # The funnel passes children's bytes on as they came; the
        # proxy's own roll-ups are what it vouches for at its parent.
        root = _hub("root")
        for frame in upstream.frames():
            if frame.type == MsgType.W_AGG and frame.sender == proxy.addr:
                root._take(proxy.addr, frame)
        assert root.bad_frames == 0

    run(scenario())


@given(frames=st.lists(FRAME, max_size=6))
@FUZZ
def test_fuzz_uplink_reader_survives_any_downward_frame(frames):
    async def scenario():
        proxy = _hub("relay")
        child = StubWriter()
        proxy._writers[CHILD] = child
        uplink = proxy._uplink
        down = wrap_proxy_down(SENDER, CHILD, SENTINEL)
        await uplink._read(_fed([*frames, down]), StubWriter())
        delivered = child.frames()
        assert delivered and delivered[-1].fields()["text"] == "sentinel"
        assert uplink.bad_frames <= sum(frame.type == MsgType.PROXY for frame in frames)

    run(scenario())


ANY_ROLLUP = st.one_of(
    ROLLUP,
    st.builds(_json_frame, st.just(MsgType.W_AGG), mostly(AGG_FIELDS)),
    st.builds(lambda payload: Message(MsgType.W_AGG, SENDER, 0, payload),
              st.binary(max_size=20)),
)


@given(frame=ANY_ROLLUP, kind=st.sampled_from(["relay", "aggregator"]))
@example(frame=_json_frame(MsgType.W_AGG, {"traces": [{"node": NODES[0]}, 7]}),
         kind="aggregator")
@example(frame=_json_frame(MsgType.W_AGG, {"boots": {NODES[0]: "00ff"}}), kind="aggregator")
@example(frame=_json_frame(MsgType.W_AGG, {"statuses": {NODES[0]: [1]}}), kind="relay")
@example(frame=_json_frame(MsgType.W_AGG, {"metrics": {"": None}}), kind="relay")
@example(frame=_json_frame(MsgType.W_AGG, {"full": "yes"}), kind="aggregator")
@example(frame=_json_frame(MsgType.W_AGG, {"trace_dropped": "3"}), kind="aggregator")
@FUZZ
def test_fuzz_a_rollup_gets_one_verdict_at_root_and_proxy(frame, kind):
    """One decoder judges every roll-up: refused whole (counted and
    traced) at the root exactly when it is refused at a proxy."""
    root, proxy = _hub("root"), _hub(kind)
    root._take(CHILD, frame)
    proxy._take(CHILD, frame)
    assert root.bad_frames == proxy.bad_frames
    if root.bad_frames:
        assert root.observer.traces.matching("control-fault")
        assert root.observer.agg_frames == 0 and not root._routes
        assert not proxy._routes and len(proxy._uplink.outbox) == 0
        assert proxy.agg_absorbed == 0


TRACE_HEX = Message.with_fields(MsgType.TRACE, SENDER, 1, text="x").pack().hex()
#: one wrong field each: every one refuses the whole roll-up
MALFORMED_ROLLUPS = {
    "member id": {"members": ["not-a-node"]},
    "departed id": {"departed": [7]},
    "boot key": {"boots": {"x": BOOT_HEX}},
    "boot frame": {"boots": {NODES[0]: "00ff"}},
    "boot type": {"boots": {NODES[0]: TRACE_HEX}},
    "status key": {"statuses": {"5": {"node": NODES[0]}}},
    "status entry": {"statuses": {NODES[0]: [1]}},
    "metrics type": {"metrics": [1]},
    "metrics shape": {"metrics": {"": None}},
    "trace entry": {"traces": [{"node": NODES[0]}, 7]},
    "traces type": {"traces": {}},
    "trace_dropped": {"trace_dropped": "3"},
    "full": {"full": "yes"},
}


@pytest.mark.parametrize("fields", list(MALFORMED_ROLLUPS.values()),
                         ids=list(MALFORMED_ROLLUPS))
def test_decode_rollup_refuses_a_wrong_field_whole(fields):
    with pytest.raises(Exception):
        decode_rollup(_json_frame(MsgType.W_AGG, fields))


def test_decode_rollup_hands_boots_back_as_the_frames_they_were():
    rollup = decode_rollup(_json_frame(MsgType.W_AGG, {
        "members": NODES[:2], "boots": {NODES[0]: BOOT_HEX},
        "statuses": {NODES[1]: {"node": NODES[1]}}, "full": True,
    }))
    assert rollup.members == [NodeId.parse(text) for text in NODES[:2]]
    assert rollup.boots[NodeId.parse(NODES[0])].pack().hex() == BOOT_HEX
    assert rollup.statuses == {NodeId.parse(NODES[1]): {"node": NODES[1]}}
    assert rollup.full and rollup.metrics == {} and rollup.traces == []
