"""``ioverlay cluster`` — shard a chain across worker processes.

Boots an observer and a :class:`~repro.cluster.controller.ClusterController`
fleet in this process, deploys a forwarding chain across the workers
(placement policy selectable), runs a paced source through the
observer's ordinary ``sDeploy`` verb for a wall-clock window, and
prints what the fleet achieved: placement map, end-to-end delivery at
the sink, per-worker gauges from the heartbeats, and observer
coverage.  SIGTERM / SIGINT end the window early through the same
graceful drain as normal completion.
"""

from __future__ import annotations

import asyncio
import json as json_mod

from repro.cluster.controller import ClusterConfig, ClusterController
from repro.cluster.scenarios import CHAIN_PAYLOAD, chain_specs, require_alive
from repro.core.ids import NodeId
from repro.net.observer_server import ObserverServer
from repro.tools.signals import install_shutdown_handlers


async def _run(workers: int, nodes: int, duration: float,
               placement: str, report_interval: float,
               fanout: int, flush_interval: float | None,
               telemetry: bool, shm_ring_bytes: int) -> dict:
    observer = ObserverServer(NodeId("127.0.0.1", 0), poll_interval=report_interval)
    await observer.start()
    controller = ClusterController(observer, ClusterConfig(
        workers=workers, placement=placement,
        observer_fanout=fanout,
        observer_flush_interval=flush_interval,
        worker_telemetry=telemetry,
        shm_ring_bytes=shm_ring_bytes,
    ))
    try:
        await controller.start()
        specs = chain_specs(nodes)
        placed = await controller.deploy(specs)
        await require_alive(observer, placed)

        stop = asyncio.Event()
        install_shutdown_handlers(stop)
        app, source, sink = 1, "n0", f"n{nodes - 1}"
        controller.deploy_source(source, app=app, payload_size=CHAIN_PAYLOAD)
        try:
            await asyncio.wait_for(stop.wait(), timeout=duration)
        except asyncio.TimeoutError:
            pass
        observer.observer.terminate_source(controller.node_id(source), app)
        await asyncio.sleep(report_interval)  # let the pipeline drain

        sink_reply = await controller.node_info(sink)
        sink_info = sink_reply["info"]
        # The fleet's data plane is attributable: sum per-transport link
        # counts over every node so the report says what carried the bytes.
        transports: dict[str, int] = {}
        for name in placed:
            for kind, links in (await controller.node_info(name)).get(
                    "transports", {}).items():
                transports[kind] = transports.get(kind, 0) + links
        stats = {
            "workers": workers,
            "nodes": nodes,
            "placement": placement,
            "duration_s": duration,
            "placement_map": {
                name: p.worker for name, p in sorted(placed.items())
            },
            "nodes_per_worker": {
                name: len(state.placed) for name, state in controller.workers.items()
            },
            "delivered_messages": int(sink_info.get("received", 0)),
            "end_to_end_rate": sink_info.get("received", 0) * CHAIN_PAYLOAD / duration,
            "transport_links": transports,
            "worker_gauges": {
                name: {"rss_kb": state.rss_kb, "loop_lag_ms": state.loop_lag_ms,
                       "nodes": state.node_count}
                for name, state in controller.workers.items()
            },
            "statuses_reported": len(observer.observer.statuses),
            "observer_frames_in": observer.frames_in,
            "observer_bytes_in": observer.bytes_in,
            "aggregation_frames": observer.observer.agg_frames,
            "interrupted": stop.is_set(),
        }
    finally:
        await controller.stop()
        await observer.stop()
    return stats


def run_cluster(
    workers: int = 2,
    nodes: int = 20,
    duration: float = 3.0,
    placement: str = "round-robin",
    report_interval: float = 0.5,
    fanout: int = 0,
    flush_interval: float | None = None,
    telemetry: bool = False,
    shm_ring_bytes: int = 1 << 20,
    as_json: bool = False,
) -> int:
    if workers < 1:
        print("need at least 1 worker")
        return 2
    if nodes < 2:
        print("need at least 2 nodes for a chain")
        return 2
    if fanout > 0 and flush_interval is None:
        flush_interval = 0.5  # a tree of pure relays would reduce nothing
    stats = asyncio.run(_run(workers, nodes, duration,
                             placement, report_interval,
                             fanout, flush_interval, telemetry,
                             shm_ring_bytes))
    if as_json:
        print(json_mod.dumps(stats, indent=2))
        return 0
    print(f"cluster: {stats['nodes']} nodes sharded over {stats['workers']} "
          f"worker processes ({stats['placement']} placement)")
    print(f"  per worker     : " + ", ".join(
        f"{name}={count}" for name, count in sorted(stats["nodes_per_worker"].items())))
    print(f"  chain delivery : {stats['delivered_messages']} messages, "
          f"{stats['end_to_end_rate'] / 1000:.1f} KB/s end-to-end")
    print(f"  data plane     : " + (", ".join(
        f"{links} {kind} link{'s' if links != 1 else ''}"
        for kind, links in sorted(stats["transport_links"].items()))
        or "no live links"))
    print(f"  control plane  : {stats['statuses_reported']}/{stats['nodes']} "
          f"nodes reported status through their worker's proxy")
    print(f"  root observer  : {stats['observer_frames_in']} frames / "
          f"{stats['observer_bytes_in']} bytes in"
          + (f", {stats['aggregation_frames']} aggregated roll-ups"
             if stats["aggregation_frames"] else ""))
    if stats["interrupted"]:
        print("  (window ended early by signal; drained gracefully)")
    return 0
