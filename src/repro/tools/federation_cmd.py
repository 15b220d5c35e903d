"""``ioverlay cluster --root`` / ``--join`` — the federated control plane.

Root mode boots an observer and a
:class:`~repro.cluster.federation.RootController` in this process,
spawns ``--children`` local child controllers (each with its own worker
fleet), optionally waits for ``--expect`` external joiners, then runs
the same chain workload as the flat ``ioverlay cluster`` — except the
placement happens in two stages (root -> controller -> worker) and the
report shows the tree.  Join mode runs one child controller daemon
(:class:`~repro.cluster.child.ChildControllerHost`, in this process)
that dials a remote root's bootstrap endpoint and serves placements
until signalled; ``ioverlay cluster --join`` is the one way to join a
root by hand (``python -m repro.cluster.child`` is the form a root
spawns, booted from its JSON spec).
"""

from __future__ import annotations

import asyncio
import json as json_mod

from repro.cluster.child import ChildControllerHost
from repro.cluster.controller import ClusterConfig
from repro.cluster.federation import RootConfig, RootController
from repro.cluster.host import run_host
from repro.cluster.scenarios import CHAIN_PAYLOAD, chain_specs, require_alive
from repro.core.ids import NodeId
from repro.net.observer_server import ObserverServer
from repro.tools.signals import install_shutdown_handlers


async def _run_root(children: int, workers_per_child: int, expect: int,
                    nodes: int, duration: float, child_placement: str,
                    report_interval: float, flush_interval: float | None,
                    telemetry: bool, shm_ring_bytes: int) -> dict:
    observer = ObserverServer(NodeId("127.0.0.1", 0), poll_interval=report_interval)
    await observer.start()
    root = RootController(observer, RootConfig(
        workers_per_child=workers_per_child,
        child_placement=child_placement,
        observer_flush_interval=flush_interval or 0.2,
        worker_telemetry=telemetry,
        shm_ring_bytes=shm_ring_bytes,
    ))
    try:
        await root.start()
        if expect > 0:
            print(f"root bootstrap at {root.addr} — waiting for {expect} "
                  f"external controller(s); join with:\n"
                  f"  ioverlay cluster --join {root.addr} --name <controller>")
        await asyncio.gather(*(root.spawn_child(f"c{i}") for i in range(children)))
        if expect > 0:
            await root.wait_joined(children + expect, timeout=120.0)

        specs = chain_specs(nodes)
        placed = await root.deploy(specs)
        await require_alive(observer, placed, timeout=60.0)

        stop = asyncio.Event()
        install_shutdown_handlers(stop)
        app, source, sink = 1, "n0", f"n{nodes - 1}"
        root.deploy_source(source, app=app, payload_size=CHAIN_PAYLOAD)
        try:
            await asyncio.wait_for(stop.wait(), timeout=duration)
        except asyncio.TimeoutError:
            pass
        observer.observer.terminate_source(root.node_id(source), app)
        await asyncio.sleep(report_interval)  # let the pipeline drain

        sink_info = (await root.node_info(sink))["info"]
        shards: dict[str, dict[str, int]] = {}
        for name, p in placed.items():
            shard = shards.setdefault(p.controller, {})
            shard[p.worker] = shard.get(p.worker, 0) + 1
        stats = {
            "controllers": len(root.controllers),
            "workers_per_child": workers_per_child,
            "nodes": nodes,
            "placement": root.config.placement,
            "child_placement": child_placement,
            "duration_s": duration,
            "placement_map": {
                name: f"{p.controller}/{p.worker}"
                for name, p in sorted(placed.items())
            },
            "shard_sizes": {
                ctl: sum(counts.values()) for ctl, counts in sorted(shards.items())
            },
            "shard_workers": {ctl: dict(sorted(counts.items()))
                              for ctl, counts in sorted(shards.items())},
            "delivered_messages": int(sink_info.get("received", 0)),
            "end_to_end_rate": sink_info.get("received", 0) * CHAIN_PAYLOAD / duration,
            "controller_gauges": {
                name: {"nodes": state.node_count,
                       "workers_alive": state.workers_alive,
                       "rss_kb": state.rss_kb}
                for name, state in root.controllers.items()
            },
            "controller_deaths": root.controller_deaths,
            "shards_redeployed": root.shards_redeployed,
            "statuses_reported": len(observer.observer.statuses),
            "observer_frames_in": observer.frames_in,
            "aggregation_frames": observer.observer.agg_frames,
            "interrupted": stop.is_set(),
        }
    finally:
        await root.stop()
        await observer.stop()
    return stats


def run_federation_root(
    children: int = 2,
    workers_per_child: int = 2,
    expect: int = 0,
    nodes: int = 20,
    duration: float = 3.0,
    child_placement: str = "round-robin",
    report_interval: float = 0.5,
    flush_interval: float | None = None,
    telemetry: bool = False,
    shm_ring_bytes: int = 1 << 20,
    as_json: bool = False,
) -> int:
    if children < 1 and expect < 1:
        print("need at least 1 child controller (--children or --expect)")
        return 2
    if nodes < 2:
        print("need at least 2 nodes for a chain")
        return 2
    stats = asyncio.run(_run_root(
        children, workers_per_child, expect, nodes, duration,
        child_placement, report_interval, flush_interval,
        telemetry, shm_ring_bytes,
    ))
    if as_json:
        print(json_mod.dumps(stats, indent=2))
        return 0
    print(f"federation: {stats['nodes']} nodes sharded over "
          f"{stats['controllers']} child controllers x "
          f"{stats['workers_per_child']} workers "
          f"({stats['placement']} -> {stats['child_placement']} placement)")
    for ctl, count in stats["shard_sizes"].items():
        workers = ", ".join(
            f"{w}={n}" for w, n in stats["shard_workers"][ctl].items())
        print(f"  shard {ctl:<8}: {count} nodes ({workers})")
    print(f"  chain delivery : {stats['delivered_messages']} messages, "
          f"{stats['end_to_end_rate'] / 1000:.1f} KB/s end-to-end")
    print(f"  control plane  : {stats['statuses_reported']}/{stats['nodes']} "
          f"nodes reported through their shard's aggregation proxy")
    print(f"  root observer  : {stats['observer_frames_in']} frames in, "
          f"{stats['aggregation_frames']} aggregated roll-ups")
    if stats["controller_deaths"]:
        print(f"  recovery       : {stats['controller_deaths']} controller "
              f"death(s), {stats['shards_redeployed']} shard redeploy(s)")
    if stats["interrupted"]:
        print("  (window ended early by signal; drained gracefully)")
    return 0


def run_federation_join(
    join: str,
    name: str,
    workers: int = 2,
    placement: str = "round-robin",
    capacity: float = 0.0,
    weight: float = 1.0,
    flush_interval: float | None = None,
    telemetry: bool = False,
    shm_ring_bytes: int = 1 << 20,
) -> int:
    """Run one child controller daemon until signalled (SIGTERM/SIGINT)."""
    config = ClusterConfig(
        workers=workers, placement=placement,
        observer_flush_interval=flush_interval or 0.2,
        worker_telemetry=telemetry, shm_ring_bytes=shm_ring_bytes,
    )
    return run_host(ChildControllerHost(
        name, join, config, capacity=capacity, weight=weight
    ))
