"""Worker death: detection ladder, domino scope, respawn, graceful signals."""

import asyncio
import os
import signal
import time

from repro.cluster.scenarios import chain_specs, wait_until
from repro.cluster.supervise import RespawnPolicy
from repro.telemetry import Telemetry
from repro.telemetry.tracing import EventType

from tests.cluster.helpers import poll_info, start_fleet, stop_fleet, wait_all_alive


def run(coro):
    return asyncio.run(coro)


def broken_link_peers(observer) -> set[str]:
    """The ``peer=`` identities from every cluster-broken-link trace."""
    peers = set()
    for record in observer.observer.traces.matching("cluster-broken-link"):
        for token in record.text.split():
            if token.startswith("peer="):
                peers.add(token[len("peer="):])
    return peers


class TestSigkillDomino:
    def test_domino_hits_exactly_the_dead_workers_nodes(self):
        async def scenario():
            telemetry = Telemetry()
            observer, controller = await start_fleet(
                workers=3, heartbeat_interval=0.2, heartbeat_timeout=1.5,
                telemetry=telemetry,
            )
            placed = await controller.deploy(chain_specs(9))
            # round-robin, sinks-first: w1 hosts n7, n4, n1
            dead_names = set(controller.workers["w1"].placed)
            assert dead_names == {"n7", "n4", "n1"}
            dead_ids = {str(placed[name].node_id) for name in dead_names}
            survivor_ids = {
                placed[name].node_id for name in placed if name not in dead_names
            }
            await wait_all_alive(observer, placed)

            # live application traffic so the source domino has something
            # to break
            controller.deploy_source("n0", app=7, payload_size=256)
            await poll_info(controller, "n8", lambda i: i.get("received", 0) > 0)

            killed_at = time.monotonic()
            os.kill(controller.workers["w1"].pid, signal.SIGKILL)
            ok = await wait_until(
                lambda: not controller.workers["w1"].alive, timeout=10.0
            )
            assert ok, "worker death never detected"
            detection = time.monotonic() - killed_at
            # the reap path fires on process exit: well inside the
            # heartbeat ladder's worst case
            assert detection < 5.0, f"detection took {detection:.1f}s"

            # observer view reconciled: exactly the hosted nodes are gone
            assert all(
                placed[name].node_id not in observer.observer.alive
                for name in dead_names
            )
            assert survivor_ids <= set(observer.observer.alive)
            assert all(name not in controller.placed for name in dead_names)
            assert controller.worker_deaths == 1

            # surviving peers ran the node-level domino: BROKEN_LINK
            # traces name exactly the dead worker's nodes, nobody else
            ok = await wait_until(
                lambda: broken_link_peers(observer) == dead_ids, timeout=15.0
            )
            assert ok, (
                f"broken-link peers {broken_link_peers(observer)} "
                f"!= dead nodes {dead_ids}"
            )
            # and the source break cascaded: the survivors downstream of a
            # cut segment (n2 lost n1, broadcasts to n3; n5 lost n4,
            # broadcasts to n6) received BROKEN_SOURCE for the live app.
            # n8's own upstream died, so it sees BROKEN_LINK, not the
            # cascade — the notice travels downstream of the break only.
            cascade_targets = {placed["n3"].node_id, placed["n6"].node_id}

            def cascade_tracers():
                return {
                    record.node
                    for record in observer.observer.traces.matching(
                        "cluster-broken-source app=7"
                    )
                }

            ok = await wait_until(
                lambda: cascade_targets <= cascade_tracers(), timeout=15.0
            )
            assert ok, (
                f"BROKEN_SOURCE cascade reached {cascade_tracers()}, "
                f"expected at least {cascade_targets}"
            )

            # telemetry audit: metric + trace event for the death
            dead_counts = {
                labels["worker"]: child.value
                for labels, child in telemetry.registry.get(
                    "ioverlay_cluster_worker_dead_total").series()
            }
            assert dead_counts == {"w1": 1.0}
            dead_events = [
                e for e in telemetry.tracer.events()
                if e.event == EventType.WORKER_DEAD
            ]
            assert len(dead_events) == 1
            assert set(dead_events[0].detail["nodes"]) == dead_ids

            # the surviving shard still works
            assert (await controller.node_info("n8"))["running"] is True
            await stop_fleet(observer, controller)

        run(scenario())


class TestRespawn:
    def test_dead_worker_respawns_and_redeploys_its_specs(self):
        async def scenario():
            telemetry = Telemetry()
            observer, controller = await start_fleet(
                workers=2, heartbeat_interval=0.2, heartbeat_timeout=1.5,
                respawn=RespawnPolicy(), telemetry=telemetry,
            )
            placed = await controller.deploy(chain_specs(6))
            victim_names = set(controller.workers["w1"].placed)
            old_ids = {name: placed[name].node_id for name in victim_names}
            await wait_all_alive(observer, placed)

            os.kill(controller.workers["w1"].pid, signal.SIGKILL)
            ok = await wait_until(
                lambda: controller.nodes_redeployed == len(victim_names)
                and controller.workers["w1"].alive,
                timeout=30.0,
            )
            assert ok, (
                f"redeployed {controller.nodes_redeployed}/{len(victim_names)}, "
                f"w1 alive={controller.workers['w1'].alive}"
            )

            # redeploys run back through the placement policy, so the
            # orphans spread over the (now whole again) fleet — what
            # matters is that each one is live somewhere with a fresh id
            for name in victim_names:
                fresh = controller.placed[name]
                assert controller.workers[fresh.worker].alive
                assert fresh.node_id != old_ids[name]  # new identity
                info = await controller.node_info(name)
                assert info["running"] is True

            redeployed = sum(
                child.value
                for _, child in telemetry.registry.get(
                    "ioverlay_cluster_node_redeployed_total").series()
            )
            assert redeployed == float(len(victim_names))
            events = [
                e for e in telemetry.tracer.events()
                if e.event == EventType.NODE_REDEPLOYED
            ]
            assert {e.detail["name"] for e in events} == victim_names
            await stop_fleet(observer, controller)

        run(scenario())


class TestHeartbeatSweep:
    def test_silent_stall_is_confirmed_by_missed_heartbeats(self):
        async def scenario():
            observer, controller = await start_fleet(
                workers=1, heartbeat_interval=0.2, heartbeat_timeout=1.0,
            )
            placed = await controller.deploy(chain_specs(2))
            await wait_all_alive(observer, placed)
            state = controller.workers["w0"]

            # SIGSTOP freezes the process: no exit to reap, no channel
            # EOF — only the heartbeat-timeout sweep can see this death.
            os.kill(state.pid, signal.SIGSTOP)
            try:
                ok = await wait_until(lambda: not state.alive, timeout=10.0)
                assert ok, "sweep never confirmed the stalled worker dead"
                assert state.process.returncode is None  # it never exited
                assert all(
                    p.node_id not in observer.observer.alive
                    for p in placed.values()
                )
            finally:
                os.kill(state.pid, signal.SIGCONT)
            await stop_fleet(observer, controller)

        run(scenario())


class TestGracefulSignals:
    def test_sigterm_drains_the_worker_and_exits_zero(self):
        async def scenario():
            observer, controller = await start_fleet(workers=1)
            placed = await controller.deploy(chain_specs(3))
            await wait_all_alive(observer, placed)
            state = controller.workers["w0"]

            os.kill(state.pid, signal.SIGTERM)
            ok = await wait_until(lambda: not state.alive, timeout=10.0)
            assert ok
            await state.process.wait()
            # graceful path, not a crash: clean exit after disconnect()s
            assert state.process.returncode == 0
            await stop_fleet(observer, controller)

        run(scenario())
