"""The federated control plane: two-stage placement, identity, recovery.

The acceptance bar matches the flat cluster's: a topology sharded
across a root and multiple child controllers (each with its own worker
fleet) must deliver byte-identical digests to a single-process run —
and losing a whole child controller must re-place exactly its shard
through the root policy while the survivors keep their identities.
"""

import asyncio
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cluster.child import ChildControllerHost
from repro.cluster.controller import ClusterConfig
from repro.cluster.federation import ControllerState, RootConfig, RootController
from repro.cluster.protocol import ControlChannel
from repro.cluster.spec import PlacedNode
from repro.core.msgtypes import MsgType
from repro.cluster.scenarios import (
    BURST_CONTROL,
    build_local,
    burst_control_message,
    chain_specs,
    poll_info,
    wait_until,
)
from repro.cluster.spec import NodeSpec
from repro.core.ids import NodeId
from repro.errors import ClusterError
from repro.net.observer_server import ObserverServer
from repro.telemetry import Telemetry
from repro.telemetry.tracing import EventType

RELAY = "repro.cluster.scenarios:ClusterRelayAlgorithm"
SINK = "repro.cluster.scenarios:DigestSinkAlgorithm"
SOURCE = "repro.cluster.scenarios:BurstSourceAlgorithm"
SRC = Path(__file__).resolve().parents[2] / "src"


def run(coro):
    return asyncio.run(coro)


async def start_tree(children=2, workers_per_child=2, **config):
    """One root observer + root controller + N spawned child controllers."""
    observer = ObserverServer(NodeId("127.0.0.1", 0), poll_interval=0.2)
    await observer.start()
    root = RootController(
        observer, RootConfig(workers_per_child=workers_per_child, **config)
    )
    await root.start()
    await asyncio.gather(
        *(root.spawn_child(f"c{i}") for i in range(children))
    )
    return observer, root


async def stop_tree(observer, root):
    await root.stop()
    await observer.stop()


async def wait_all_alive(observer, placed, timeout=60.0):
    ok = await wait_until(
        lambda: all(p.node_id in observer.observer.alive for p in placed.values()),
        timeout=timeout,
    )
    assert ok, (
        f"only {len(observer.observer.alive)}/{len(placed)} placed nodes "
        "booted at the root observer"
    )


class TestTwoStagePlacement:
    def test_chain_spreads_across_controllers_and_their_workers(self):
        async def scenario():
            observer, root = await start_tree(children=2, workers_per_child=2)
            try:
                placed = await root.deploy(chain_specs(12))
                by_controller = {}
                for p in placed.values():
                    by_controller.setdefault(p.controller, set()).add(p.worker)
                # both controllers host a share, on both of their workers
                assert set(by_controller) == {"c0", "c1"}
                for workers in by_controller.values():
                    assert workers == {"w0", "w1"}
            finally:
                await stop_tree(observer, root)

        run(scenario())

    def test_controller_pin_and_worker_pin_compose(self):
        """A spec can pin its controller, its worker within it, or both —
        and its '@name' refs resolve across controller boundaries."""

        async def scenario():
            observer, root = await start_tree(children=2)
            try:
                placed = await root.deploy([
                    NodeSpec("sink", SINK, controller="c1", pin="w1"),
                    NodeSpec(
                        "src", SOURCE,
                        {"downstreams": ["@sink"]}, controller="c0", pin="w0",
                    ),
                ])
                assert placed["sink"].controller == "c1"
                assert placed["sink"].worker == "w1"
                assert placed["src"].controller == "c0"
                assert placed["src"].worker == "w0"
                await wait_all_alive(observer, placed)
                # the source's '@sink' ref crossed the controller boundary:
                # a burst sent on c0 lands on c1's sink, byte for byte
                root.send_control(
                    "src", BURST_CONTROL, param1=5, param2=64, app=3
                )
                info = await poll_info(
                    root, "sink", lambda i: i.get("received", 0) >= 5, timeout=60.0
                )
                assert info["received"] == 5
                relay_info = await root.node_info("src")
                assert str(placed["sink"].node_id) in relay_info["downstreams"]
            finally:
                await stop_tree(observer, root)

        run(scenario())

    def test_pin_to_unknown_controller_fails_loudly(self):
        async def scenario():
            observer, root = await start_tree(children=1)
            try:
                with pytest.raises(ClusterError):
                    await root.place(NodeSpec("x", SINK, controller="nope"))
            finally:
                await stop_tree(observer, root)

        run(scenario())

    def test_capacity_policy_respects_declared_headroom(self):
        """Heterogeneous capacities: the bigger shard takes more weight."""

        async def scenario():
            observer = ObserverServer(NodeId("127.0.0.1", 0), poll_interval=0.2)
            await observer.start()
            root = RootController(observer, RootConfig(placement="capacity"))
            await root.start()
            try:
                # capacity comes from the child's own declaration, so
                # spawn via explicit spec-level knobs: one small, one big
                root._spawn_workers["small"] = 1
                root._spawn_workers["big"] = 1
                spec = root.child_spec

                def patched(state):
                    built = spec(state)
                    built["capacity"] = 2.0 if state.name == "small" else 8.0
                    return built

                root.child_spec = patched
                await asyncio.gather(
                    root.spawn_child("small"), root.spawn_child("big")
                )
                assert root.controllers["small"].capacity == 2.0
                assert root.controllers["big"].capacity == 8.0

                specs = [
                    NodeSpec(f"s{i}", SINK, weight=1.0) for i in range(9)
                ]
                placed = await root.deploy(specs)
                counts = {}
                for p in placed.values():
                    counts[p.controller] = counts.get(p.controller, 0) + 1
                # most-free-capacity placement: big absorbs the surplus,
                # small fills to its declared ceiling and no further
                assert counts == {"big": 7, "small": 2}
                assert root.controllers["small"].load <= 2.0
            finally:
                await stop_tree(observer, root)

        run(scenario())


class TestFederatedIdentity:
    def test_chain_across_two_controllers_matches_one_process(self):
        app, count, size, length = 7, 30, 256, 12

        async def federated_digest() -> str:
            observer, root = await start_tree(children=2, workers_per_child=2)
            try:
                placed = await root.deploy(chain_specs(length))
                assert len({p.controller for p in placed.values()}) == 2
                await wait_all_alive(observer, placed)
                root.send_control(
                    "n0", BURST_CONTROL, param1=count, param2=size, app=app
                )
                info = await poll_info(
                    root, f"n{length - 1}",
                    lambda i: i.get("received", 0) >= count, timeout=60.0,
                )
                return info["digests"][str(app)]
            finally:
                await stop_tree(observer, root)

        async def local_digest() -> str:
            host = await build_local(chain_specs(length))
            host.engine("n0").algorithm.on_control(
                burst_control_message(app, count, size)
            )
            sink = host.engine(f"n{length - 1}").algorithm
            ok = await wait_until(lambda: sink.received >= count, timeout=30.0)
            assert ok
            digest = sink.digest(app)
            await host.stop()
            return digest

        assert run(federated_digest()) == run(local_digest())


class TestControllerDeath:
    def test_sigkill_redeploys_exactly_the_dead_shard(self):
        async def scenario():
            telemetry = Telemetry()
            observer, root = await start_tree(
                children=2, telemetry=telemetry, heartbeat_timeout=2.0,
            )
            try:
                placed = await root.deploy(chain_specs(8))
                dead_shard = {
                    n for n, p in placed.items() if p.controller == "c1"
                }
                survivors = {
                    n: p.node_id for n, p in placed.items()
                    if p.controller == "c0"
                }
                assert dead_shard and survivors
                await wait_all_alive(observer, placed)

                root.controllers["c1"].process.send_signal(signal.SIGKILL)

                ok = await wait_until(
                    lambda: root.shards_redeployed >= 1, timeout=30.0
                )
                assert ok, "shard redeploy never completed"
                assert root.controller_deaths == 1

                # exactly the dead shard moved, onto the survivor
                for name in dead_shard:
                    fresh = root.placed[name]
                    assert fresh.controller == "c0"
                    assert fresh.node_id != placed[name].node_id
                    info = await root.node_info(name)
                    assert info["running"] is True
                # survivors kept their identities
                for name, node_id in survivors.items():
                    assert root.placed[name].node_id == node_id
                assert root.nodes_redeployed == len(dead_shard)

                # telemetry audit: gauge, counters, trace events
                controllers_gauge = telemetry.registry.get(
                    "ioverlay_cluster_controllers").labels().value
                assert controllers_gauge == 1.0
                dead_counts = {
                    labels["controller"]: child.value
                    for labels, child in telemetry.registry.get(
                        "ioverlay_cluster_controller_dead_total").series()
                }
                assert dead_counts == {"c1": 1.0}
                shard_counts = {
                    labels["controller"]: child.value
                    for labels, child in telemetry.registry.get(
                        "ioverlay_cluster_shard_redeployed_total").series()
                }
                assert shard_counts == {"c1": 1.0}
                events = [e for e in telemetry.tracer.events()]
                dead_events = [
                    e for e in events if e.event == EventType.CONTROLLER_DEAD
                ]
                assert len(dead_events) == 1
                assert set(dead_events[0].detail["shard"]) == dead_shard
                shard_events = [
                    e for e in events if e.event == EventType.SHARD_REDEPLOYED
                ]
                assert len(shard_events) == 1
                assert set(shard_events[0].detail["nodes"]) == dead_shard
            finally:
                await stop_tree(observer, root)

        run(scenario())


class TestNodeDownReporting:
    """Losing a node inside a shard must reconcile the root's global map."""

    def test_worker_death_without_respawn_reports_the_spec_name(self):
        """End-to-end child side: a worker dying (respawn off) surfaces
        as a C_EVENT node-down carrying the spec *name* the root keys
        its placed map by, alongside the node identity."""

        async def scenario():
            from repro.net.observer_server import ObserverServer

            observer = ObserverServer(NodeId("127.0.0.1", 0), poll_interval=0.2)
            await observer.start()
            loop = asyncio.get_running_loop()
            events, replies, chans = [], {}, []

            async def accept(reader, writer):
                # A minimal federation root: welcome the joiner, record
                # its events, correlate its replies.
                chan = ControlChannel(reader, writer)
                chans.append(chan)
                while True:
                    try:
                        msg = await chan.recv()
                    except (asyncio.IncompleteReadError, ConnectionError, OSError):
                        return
                    fields = msg.fields()
                    if msg.type == MsgType.W_REGISTER:
                        await chan.send(
                            MsgType.C_WELCOME,
                            observer=str(observer.addr), proxy_port=0,
                        )
                    elif msg.type == MsgType.C_EVENT:
                        events.append(fields)
                    else:
                        fut = replies.pop(msg.seq, None)
                        if fut is not None and not fut.done():
                            fut.set_result(fields)

            server = await asyncio.start_server(accept, host="127.0.0.1", port=0)
            root_addr = NodeId("127.0.0.1", server.sockets[0].getsockname()[1])
            host = ChildControllerHost("c0", root_addr, ClusterConfig(workers=1))
            try:
                await host.start()

                async def rpc(seq, type_, **fields):
                    fut = loop.create_future()
                    replies[seq] = fut
                    await chans[0].send(type_, seq=seq, **fields)
                    return await asyncio.wait_for(fut, 30.0)

                placed = await rpc(1, MsgType.W_SPAWN, name="sink", algorithm=SINK)
                assert "error" not in placed

                # in-flight handler bookkeeping drains once served
                # (what stays is the serve loop and the heartbeat timer)
                ok = await wait_until(lambda: len(host._tasks) == 2, timeout=10.0)
                assert ok, "completed root-frame handlers were not pruned"

                host.controller.workers["w0"].process.kill()
                ok = await wait_until(
                    lambda: any(e.get("event") == "node-down" for e in events),
                    timeout=30.0,
                )
                assert ok, f"no node-down event; saw {events}"
                down = next(e for e in events if e.get("event") == "node-down")
                assert down["name"] == "sink"
                assert down["node"] == placed["node"]
            finally:
                await host.stop()
                for chan in chans:  # 3.12's wait_closed() waits for these
                    chan.close()
                server.close()
                await server.wait_closed()
                await observer.stop()

        run(scenario())

    def test_root_reconciles_by_name_or_identity(self):
        """Root side: a node-down report removes the placement from the
        global and shard maps and marks the identity down — whether it
        carries the spec name or only the ip:port identity."""

        class _Recorder:
            addr = NodeId("127.0.0.1", 1)

            def __init__(self):
                self.down = []

            def mark_down(self, node):
                self.down.append(node)

        obs = _Recorder()
        root = RootController(obs)
        state = ControllerState(name="c0")
        root.controllers["c0"] = state
        node = NodeId("127.0.0.1", 5001)
        placed = PlacedNode(
            spec=NodeSpec("sink", SINK), worker="w0",
            node_id=node, controller="c0",
        )
        for report in (
            {"event": "node-down", "name": "sink", "node": str(node)},
            {"event": "node-down", "node": str(node)},
        ):
            root.placed["sink"] = placed
            state.placed["sink"] = placed
            root._on_event(state, report)
            assert "sink" not in root.placed
            assert "sink" not in state.placed
        assert obs.down == [node, node]


class TestHeartbeatsCarryControllerIdentity:
    def test_worker_gauges_attribute_to_their_controller_shard(self):
        async def scenario():
            observer, root = await start_tree(children=1, workers_per_child=1)
            try:
                await root.deploy(chain_specs(2))
                ok = await wait_until(
                    lambda: root.controllers["c0"].node_count == 2
                    and root.controllers["c0"].workers_alive == 1,
                    timeout=15.0,
                )
                assert ok, (
                    root.controllers["c0"].node_count,
                    root.controllers["c0"].workers_alive,
                )
            finally:
                await stop_tree(observer, root)

        run(scenario())


def _children_running(pid: int, marker: str) -> list[int]:
    """PIDs of ``pid``'s child processes whose command line has ``marker``."""
    out = subprocess.run(
        ["ps", "-o", "pid=,args=", "--ppid", str(pid)],
        capture_output=True, text=True,
    ).stdout
    return [int(line.split()[0]) for line in out.splitlines() if marker in line]


def _running(pids: list[int]) -> list[int]:
    out = subprocess.run(["ps", "-o", "pid=", "-e"], capture_output=True, text=True)
    return sorted(set(pids) & {int(p) for p in out.stdout.split()})


class TestCliJoin:
    def test_join_spelling_serves_the_root_and_exits_clean(self):
        """``ioverlay cluster --join`` is the one way to join by hand: the
        joiner is adopted with its declared capacity, and SIGTERM drains
        it and its worker fleet with exit status 0."""

        async def scenario():
            observer = ObserverServer(NodeId("127.0.0.1", 0), poll_interval=0.2)
            await observer.start()
            root = RootController(observer, RootConfig())
            await root.start()
            proc = await asyncio.create_subprocess_exec(
                sys.executable, "-m", "repro.tools.cli", "cluster",
                "--join", str(root.addr), "--name", "cb",
                "--workers", "1", "--capacity", "4",
                env={**os.environ, "PYTHONPATH": str(SRC)},
            )
            try:
                await root.wait_joined(1)
                state = root.controllers["cb"]
                assert state.ready and state.alive
                assert state.capacity == 4.0
                workers = _children_running(proc.pid, "repro.cluster")
                assert len(workers) == 1
                proc.send_signal(signal.SIGTERM)
                assert await asyncio.wait_for(proc.wait(), 30.0) == 0
                assert _running(workers) == []
            finally:
                if proc.returncode is None:
                    proc.kill()
                    await proc.wait()
                await stop_tree(observer, root)

        run(scenario())
