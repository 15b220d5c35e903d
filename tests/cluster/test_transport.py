"""Cross-worker transport selection: shm rings by default, TCP on demand.

The fleet's data plane is attributable: every engine reports its live
links per transport kind (``transport_mix``, surfaced through
``W_NODE_INFO``), so these tests can assert not just that bytes arrive
but *which* transport carried them — shared-memory rings under the
default config, plain TCP when ``shm_ring_bytes=0`` forces the
fallback, with identical application-level outcomes either way.
"""

import asyncio

from repro.cluster.scenarios import BURST_CONTROL, chain_specs

from tests.cluster.helpers import poll_info, start_fleet, stop_fleet, wait_all_alive


def run(coro):
    return asyncio.run(coro)


async def _chain_burst(length: int, **config) -> list[dict]:
    """Run a short chain burst; return every node's W_NODE_INFO reply."""
    app, count, size = 5, 20, 256
    observer, controller = await start_fleet(workers=2, **config)
    placed = await controller.deploy(chain_specs(length))
    await wait_all_alive(observer, placed)
    controller.send_control("n0", BURST_CONTROL, param1=count, param2=size, app=app)
    await poll_info(
        controller, f"n{length - 1}",
        lambda i: i.get("received", 0) >= count, timeout=60.0,
    )
    infos = [await controller.node_info(f"n{i}") for i in range(length)]
    await stop_fleet(observer, controller)
    return infos


class TestTransportSelection:
    def test_default_fleet_runs_on_shm_rings(self):
        infos = run(_chain_burst(4))
        mixes = [info["transports"] for info in infos]
        # Round-robin over 2 workers alternates every hop cross-worker.
        assert all(set(mix) == {"shm"} for mix in mixes), mixes
        # Chain interior nodes hold both an inbound and an outbound link.
        assert sum(sum(mix.values()) for mix in mixes) == 6

    def test_shm_disabled_falls_back_to_tcp(self):
        infos = run(_chain_burst(4, shm_ring_bytes=0))
        mixes = [info["transports"] for info in infos]
        assert all(set(mix) == {"tcp"} for mix in mixes), mixes
