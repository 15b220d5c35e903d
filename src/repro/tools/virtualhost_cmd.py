"""``ioverlay virtualhost`` — pack N full nodes into this process.

Spins up a :class:`~repro.net.virtual.VirtualHost` carrying a
source → relays → sink chain (the fig5 workload), with a live observer
polling every node, runs it for a wall-clock window, and prints what
the packing achieved: end-to-end delivery, status-report coverage, and
the loopback-dial count proving co-hosted traffic stayed in-process.
"""

from __future__ import annotations

import asyncio
import json as json_mod
import time

from repro.algorithms.forwarding import CopyForwardAlgorithm, SinkAlgorithm
from repro.cluster.scenarios import CHAIN_PAYLOAD
from repro.core.ids import NodeId
from repro.net.engine import NetEngineConfig
from repro.net.observer_server import ObserverServer
from repro.net.virtual import VirtualHost
from repro.tools.signals import install_shutdown_handlers


async def _run(nodes: int, duration: float, report_interval: float) -> dict:
    observer = ObserverServer(NodeId("127.0.0.1", 0), poll_interval=report_interval)
    await observer.start()
    host = VirtualHost(observer_addr=observer.addr)
    algorithms = [CopyForwardAlgorithm() for _ in range(nodes - 1)] + [SinkAlgorithm()]
    config = NetEngineConfig(report_interval=report_interval)
    engines = [host.add_node(alg, config=config) for alg in algorithms]

    t0 = time.monotonic()
    await host.start()
    startup = time.monotonic() - t0
    for alg, nxt in zip(algorithms, engines[1:]):
        alg.set_downstreams([nxt.node_id])
    await host.connect_chain()

    sink = algorithms[-1]
    # SIGTERM/SIGINT end the window early but still run the engines'
    # graceful teardown below (clean EOFs at peers, observer notified).
    stop = asyncio.Event()
    install_shutdown_handlers(stop)
    engines[0].start_source(app=1, payload_size=CHAIN_PAYLOAD)
    try:
        await asyncio.wait_for(stop.wait(), timeout=duration)
    except asyncio.TimeoutError:
        pass
    engines[0].stop_source(1)
    await asyncio.sleep(report_interval)  # let final reports land

    stats = {
        "nodes": nodes,
        "duration_s": duration,
        "payload_bytes": CHAIN_PAYLOAD,
        "startup_ms_per_node": startup * 1000.0 / nodes,
        "delivered_messages": sink.received,
        "delivered_bytes": sink.received_bytes,
        "end_to_end_rate": sink.received_bytes / duration,
        "statuses_reported": len(observer.observer.statuses),
        "loopback_dials": host.resolver.dials,
    }
    await host.stop()
    await observer.stop()
    return stats


def run_virtualhost(
    nodes: int = 100,
    duration: float = 3.0,
    report_interval: float = 0.5,
    as_json: bool = False,
) -> int:
    if nodes < 2:
        print("need at least 2 nodes for a chain")
        return 2
    stats = asyncio.run(_run(nodes, duration, report_interval))
    if as_json:
        print(json_mod.dumps(stats, indent=2))
        return 0
    print(f"virtual host: {stats['nodes']} nodes on one event loop "
          f"({stats['startup_ms_per_node']:.1f} ms/node startup)")
    print(f"  chain delivery : {stats['delivered_messages']} messages, "
          f"{stats['end_to_end_rate'] / 1000:.1f} KB/s end-to-end")
    print(f"  control plane  : {stats['statuses_reported']}/{stats['nodes']} "
          f"nodes reported status to the observer")
    print(f"  loopback dials : {stats['loopback_dials']} "
          f"(chain links: {stats['nodes'] - 1}; equal means zero sockets "
          f"between co-hosted nodes)")
    return 0
