"""Mid-tree proxy respawn: the replacement re-binds its predecessor's port.

Regression for the tree-mode respawn gap: a respawned aggregator worker
used to bind a fresh ephemeral proxy port, so every child proxy dialing
the old endpoint spun on a dead address until the children themselves
were restarted.  The controller now remembers the first proxy port per
worker name and hands it to the respawn (``--proxy-port``); children —
whose proxies already redial a lost upstream under backoff and replay
their BOOT frames — reattach on their own.
"""

import asyncio
import os
import signal

from repro.cluster.scenarios import SINK, wait_until
from repro.cluster.spec import NodeSpec
from repro.cluster.supervise import RespawnPolicy
from repro.core.ids import NodeId

from tests.cluster.helpers import start_fleet, stop_fleet, wait_all_alive


def run(coro):
    return asyncio.run(coro)


class TestMidTreeProxyRespawn:
    def test_sigkill_mid_tree_worker_keeps_children_attached(self):
        async def scenario():
            # fanout 1 chains the proxies: w0 -> observer, w1 -> w0's
            # proxy, w2 -> w1's proxy.  w1 is a mid-tree aggregator.
            observer, controller = await start_fleet(
                workers=3,
                heartbeat_interval=0.2,
                heartbeat_timeout=1.5,
                respawn=RespawnPolicy(),
                observer_fanout=1,
                observer_flush_interval=0.2,
                worker_telemetry=True,
            )
            placed = await controller.deploy([
                NodeSpec(name="leaf", algorithm=SINK, pin="w2"),
                NodeSpec(name="mid", algorithm=SINK, pin="w1"),
            ])
            await wait_all_alive(observer, placed)
            leaf_id = placed["leaf"].node_id
            old_port = NodeId.parse(controller.workers["w1"].proxy_addr).port
            child_pid = controller.workers["w2"].pid
            assert old_port > 0

            os.kill(controller.workers["w1"].pid, signal.SIGKILL)
            ok = await wait_until(
                lambda: controller.workers["w1"].alive
                and controller.workers["w1"].proxy_addr,
                timeout=30.0,
            )
            assert ok, "w1 never respawned"

            # The replacement bound the exact port the children dial.
            new_port = NodeId.parse(controller.workers["w1"].proxy_addr).port
            assert new_port == old_port, (
                f"respawned proxy moved {old_port} -> {new_port}; "
                "children would need a restart to follow"
            )

            # The child worker was never touched...
            assert controller.workers["w2"].alive
            assert controller.workers["w2"].pid == child_pid

            # ...and its hosted node's observer traffic flows to the root
            # again through the respawned aggregator: a fresh status for
            # the leaf arrives after the kill.
            def fresh_leaf_status() -> bool:
                status = observer.observer.statuses.get(leaf_id)
                reconnects = observer.observer.agg_frames
                return status is not None and reconnects > 0 and (
                    leaf_id in observer.observer.alive
                )

            marker = observer.observer.statuses.get(leaf_id)
            before = marker.received_at if marker is not None else -1.0

            def leaf_reports_again() -> bool:
                status = observer.observer.statuses.get(leaf_id)
                return status is not None and status.received_at > before

            ok = await wait_until(leaf_reports_again, timeout=30.0)
            assert ok, "leaf's statuses never resumed through the new proxy"
            assert fresh_leaf_status()

            # The mid node itself was redeployed (its process died).
            assert controller.placed["mid"].node_id != placed["mid"].node_id
            await stop_fleet(observer, controller)

        run(scenario())
