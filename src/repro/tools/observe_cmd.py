"""``ioverlay observe`` — a standalone observer daemon.

Runs the live :class:`~repro.net.observer_server.ObserverServer` on a
chosen endpoint so externally-launched nodes, virtual hosts or cluster
workers can bootstrap against it.  The daemon parks until SIGTERM /
SIGINT (or an optional ``--duration``), then shuts down gracefully —
closing every node connection cleanly — and prints a final summary of
what it saw.
"""

from __future__ import annotations

import asyncio
import json as json_mod

from repro.core.ids import NodeId
from repro.net.observer_server import ObserverServer
from repro.tools.signals import install_shutdown_handlers


#: seconds between status polls
POLL_INTERVAL = 1.0


async def _run(ip: str, port: int, duration: float | None) -> dict:
    server = ObserverServer(NodeId(ip, port), poll_interval=POLL_INTERVAL)
    await server.start()
    print(f"observer listening on {server.addr} (poll every {POLL_INTERVAL}s)",
          flush=True)
    stop = asyncio.Event()
    install_shutdown_handlers(stop)
    try:
        await asyncio.wait_for(stop.wait(), timeout=duration)
    except asyncio.TimeoutError:
        pass
    observer = server.observer
    summary = {
        "addr": str(server.addr),
        "alive_nodes": len(observer.alive),
        "statuses": len(observer.statuses),
        "traces": len(observer.traces),
        "boot_count": observer.boot_count,
        "lease_expiries": observer.lease_expiries,
        "graceful": True,
    }
    await server.stop()
    return summary


def run_observe(
    ip: str = "127.0.0.1",
    port: int = 0,
    duration: float | None = None,
    as_json: bool = False,
) -> int:
    summary = asyncio.run(_run(ip, port, duration))
    if as_json:
        print(json_mod.dumps(summary, indent=2))
    else:
        print(f"observer on {summary['addr']} shut down cleanly: "
              f"{summary['alive_nodes']} nodes alive, "
              f"{summary['statuses']} statuses, {summary['traces']} traces, "
              f"{summary['boot_count']} boots")
    return 0
