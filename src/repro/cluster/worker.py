"""The worker process: one event loop hosting a shard of the overlay.

A :class:`WorkerHost` is what runs inside every fleet process (``python
-m repro.cluster.worker SPEC``, where ``SPEC`` is the controller's JSON
document of this class's keyword arguments):

- a :class:`~repro.net.virtual.VirtualHost` carrying this worker's
  share of the nodes (co-hosted traffic stays on the zero-copy
  loopback; cross-worker traffic uses ordinary sockets),
- an :class:`~repro.net.proxy.ObserverProxy` funnelling every hosted
  node's observer link into the *one* upstream connection the observer
  sees per worker,
- one control channel to the controller — the shared host half
  (:class:`~repro.cluster.host.ControlHost`): ``W_REGISTER`` on
  connect, then ``W_SPAWN``/``W_STOP_NODE``/``W_NODE_INFO``/
  ``W_SHUTDOWN`` served in arrival order, plus periodic ``W_HEARTBEAT``
  frames carrying process gauges (peak RSS, event-loop lag, node count).

Shutdown — whether by ``W_SHUTDOWN``, controller disappearance, SIGTERM
or SIGINT — runs the engines' deliberate ``disconnect`` path for every
live link before stopping, so surviving peers read a clean EOF instead
of a mid-frame reset.
"""

from __future__ import annotations

import json
import os
import sys

from repro.cluster.host import ControlHost, run_host
from repro.cluster.spec import build_algorithm
from repro.core.ids import NodeId
from repro.net.proxy import ObserverProxy
from repro.net.virtual import VirtualHost


class WorkerHost(ControlHost):
    """One fleet process: virtual host + observer funnel + control channel."""

    def __init__(
        self,
        name: str,
        controller_addr: NodeId | str,
        observer_addr: NodeId | str,
        ip: str = "127.0.0.1",
        heartbeat_interval: float = 0.5,
        flush_interval: float | None = None,
        telemetry_enabled: bool = False,
        trace_sample: int = 1,
        shm_ring_bytes: int = 0,
        proxy_port: int = 0,
        controller_name: str = "",
        exit_after_register: bool = False,
    ) -> None:
        super().__init__(name, controller_addr, heartbeat_interval)
        #: identity of the controller shard this worker belongs to; rides
        #: every registration and heartbeat so federated telemetry can
        #: attribute process gauges to their child controller
        self.controller_name = controller_name
        #: test hook: die immediately after a successful W_REGISTER (the
        #: respawn-budget regression needs a worker that crash-loops on
        #: boot while still passing the registration handshake)
        self.exit_after_register = exit_after_register
        self.observer_addr = NodeId.parse(observer_addr)
        self.ip = ip
        #: with a flush interval the proxy runs in aggregation mode: it
        #: absorbs and pre-reduces observer traffic, making this worker a
        #: node of the observer tree instead of a transparent funnel
        self.flush_interval = flush_interval
        self.telemetry_enabled = telemetry_enabled
        self.trace_sample = trace_sample
        #: ring capacity for the shared-memory fast path between co-machine
        #: workers (0 = plain TCP); see :mod:`repro.net.shm`
        self.shm_ring_bytes = shm_ring_bytes
        #: bind the observer proxy to this exact port (0 = ephemeral).  A
        #: respawned worker is handed its predecessor's port so children
        #: of a mid-tree aggregator redial the same endpoint instead of
        #: needing a cascading restart.
        self.proxy_port = proxy_port
        self.telemetry = None
        self.proxy: ObserverProxy | None = None
        #: this worker's nodes, by spec name
        self.host: VirtualHost | None = None

    # ------------------------------------------------------------------ lifecycle

    async def start(self) -> None:
        if self.telemetry_enabled:
            from repro.telemetry import Telemetry

            self.telemetry = Telemetry(trace_sample=self.trace_sample)
        self.proxy = ObserverProxy(
            NodeId(self.ip, self.proxy_port), self.observer_addr,
            flush_interval=self.flush_interval, telemetry=self.telemetry,
        )
        await self.proxy.start()
        self.host = VirtualHost(observer_addr=self.proxy.addr, ip=self.ip)
        # The proxy address rides the registration: in tree mode the
        # controller points later workers' upstreams at it.
        await self._register(
            proxy=str(self.proxy.addr), controller=self.controller_name
        )
        if self.exit_after_register:
            # Crash-on-boot test hook: vanish without a graceful drain.
            os._exit(17)
        self._serve_forever()

    async def drain(self) -> None:
        if self.host is not None:
            # The engines' graceful path: peers observe a clean close and
            # run their own teardown; no BROKEN_LINK is raised locally.
            for engine in self.host.engines():
                for dest in engine.downstreams():
                    engine.disconnect(dest)
            await self.host.stop()
        if self.proxy is not None:
            await self.proxy.stop()

    def gauges(self) -> dict:
        nodes = len(self.host) if self.host is not None else 0
        return {"nodes": nodes, "controller": self.controller_name}

    # ------------------------------------------------------------ request verbs

    async def spawn(self, fields: dict) -> dict:
        assert self.host is not None
        name = str(fields["name"])
        algorithm = build_algorithm(
            str(fields["algorithm"]), dict(fields.get("kwargs", {}))
        )
        from repro.net.engine import NetEngineConfig

        # All co-hosted nodes share the worker's telemetry (one
        # registry/tracer per process is what the aggregating proxy
        # flushes upward) and the worker's shm-ring policy: dials to
        # nodes on sibling co-machine workers negotiate shared-memory
        # channels, dials landing co-hosted stay on loopback.
        config = NetEngineConfig(
            telemetry=self.telemetry, shm_ring_bytes=self.shm_ring_bytes
        )
        engine = self.host.add_node(algorithm, name, config)
        await self.host.start_node(engine)
        return {"name": name, "node": str(engine.node_id)}

    async def stop_node(self, fields: dict) -> dict:
        assert self.host is not None
        name = str(fields["name"])
        await self.host.stop_node(name)
        return {"name": name, "ok": True}

    async def node_info(self, fields: dict) -> dict:
        assert self.host is not None
        name = str(fields["name"])
        engine = self.host.engine(name)
        algorithm = engine.algorithm
        # Duck-typed scenario hook: algorithms may expose application
        # facts (digests, counters) for cross-process verification.
        info_hook = getattr(algorithm, "cluster_info", None)
        return {
            "name": name,
            "node": str(engine.node_id),
            "running": engine.running,
            "algorithm": type(algorithm).__name__,
            "downstreams": [str(peer) for peer in engine.downstreams()],
            "transports": engine.transport_mix(),
            "info": info_hook() if callable(info_hook) else {},
        }


# ----------------------------------------------------------------- entry point

if __name__ == "__main__":
    # argv[1] is the controller's spec: this host's keyword arguments.
    sys.exit(run_host(WorkerHost(**json.loads(sys.argv[1]))))
