"""The placement controller: spawn, place, supervise a worker fleet.

The :class:`ClusterController` is the cluster-level analog of the
paper's observer control panel, and the process-level instantiation of
the placement tier (:mod:`repro.cluster.tier`).  It

- spawns ``config.workers`` worker processes (``python -m
  repro.cluster.worker``) and serves their control channels,
- owns **placement**: every :class:`~repro.cluster.spec.NodeSpec` lands
  on a worker chosen by the configured policy (round-robin or
  bin-packing by declared weight) or by an explicit per-spec pin,
- drives application deployment through the existing observer verbs
  (``deploy_source``/``send_control``/``connect`` reach nodes over
  their per-worker :class:`~repro.net.proxy.ObserverProxy` funnel),
- **supervises** through the shared supervision core
  (:mod:`repro.cluster.supervise`): heartbeats carry per-worker gauges
  (peak RSS, event-loop lag, node count); a missed-heartbeat window, a
  channel EOF or a reaped process all confirm a worker dead.  Death
  marks every hosted node down at the observer — the node-level failure
  domino at surviving peers has already fired through their ordinary
  transport teardown — and, given ``respawn=RespawnPolicy(...)``,
  relaunches the worker under that consecutive-respawn budget and
  re-places its specs.

What this file says is only what a *worker* tier adds to the shared
one: the boot spec of a worker, the observer-tree spawn order, the per-worker
gauges, and that a respawned worker gets its predecessor's specs back.
The federation root (:mod:`repro.cluster.federation`) is the same tier
over whole child controllers.  In a federated deployment the controller
answers to a root instead of owning the observer: the ``observer``
argument then is a relay shim rather than an
:class:`~repro.net.observer_server.ObserverServer` (see
:class:`~repro.cluster.tier.ObserverControl`).

Every cluster lifecycle step is observable: ``worker-spawn``,
``worker-dead``, ``node-placed`` and ``node-redeployed`` each bump a
labelled counter and append a trace event when telemetry is attached.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any

from repro.cluster.placement import make_placement
from repro.cluster.spec import NodeSpec, PlacedNode
from repro.cluster.tier import PlacementTier, ShardState, TierConfig
from repro.errors import ClusterError
from repro.telemetry.tracing import EventType


@dataclass
class ClusterConfig(TierConfig):
    """Tunables of one controller-led fleet."""

    workers: int = 2
    #: wire the workers' observer proxies into an aggregation tree with
    #: this fan-out: the first ``observer_fanout`` workers attach to the
    #: root observer, worker ``i`` thereafter to worker ``i//fanout - 1``'s
    #: proxy.  ``0`` (the default) keeps the flat PR-5 funnel layout.
    observer_fanout: int = 0
    #: aggregation flush period for the workers' proxies; required when
    #: ``observer_fanout`` is set (a tree of pure relays would loop every
    #: frame through more hops for no reduction)
    observer_flush_interval: float | None = None
    #: head-sampling divisor forwarded to the workers' tracers
    worker_trace_sample: int = 1
    #: identity of the controller this fleet answers to; workers stamp it
    #: on their registrations and heartbeats so a federated deployment
    #: can attribute every process gauge to its controller shard
    controller_name: str = ""


#: everything the controller knows about one fleet process
WorkerState = ShardState


class ClusterController(PlacementTier):
    """Spawns worker processes, places nodes, supervises the fleet."""

    child_kind = "worker"
    trace_source = "controller"
    host_module = "repro.cluster.worker"

    def __init__(self, observer: Any, config: ClusterConfig | None = None) -> None:
        config = config or ClusterConfig()
        super().__init__(observer, config, make_placement(config.placement))
        #: worker name -> observer endpoint its proxy dials (tree wiring)
        self._upstreams: dict[str, str] = {}
        tel = config.telemetry
        if tel is not None:
            reg = tel.registry
            self._c_spawn = reg.counter(
                "ioverlay_cluster_worker_spawn_total", "Worker processes launched", ("worker",))
            self._c_dead = reg.counter(
                "ioverlay_cluster_worker_dead_total", "Worker deaths confirmed", ("worker",))
            self._g_rss = reg.gauge(
                "ioverlay_cluster_worker_rss_kb", "Worker peak RSS (KiB)", ("worker",))
            self._g_lag = reg.gauge(
                "ioverlay_cluster_worker_loop_lag_ms", "Worker event-loop lag (ms)", ("worker",))
            self._g_nodes = reg.gauge(
                "ioverlay_cluster_worker_nodes", "Nodes hosted per worker", ("worker",))
        else:
            self._c_spawn = self._c_dead = None
            self._g_rss = self._g_lag = self._g_nodes = None

    @property
    def workers(self) -> dict[str, WorkerState]:
        """The fleet as the supervision core tracks it."""
        return self.children  # type: ignore[return-value]

    @property
    def worker_deaths(self) -> int:
        return self.deaths

    # ------------------------------------------------------------------ lifecycle

    async def start(self) -> None:
        """Bind the control server, then launch and await the fleet."""
        await super().start()
        fanout = self.config.observer_fanout
        if fanout > 0:
            # Tree mode must spawn sequentially: worker i's upstream is a
            # parent worker's proxy port, which is only known once that
            # parent has registered.
            for i in range(self.config.workers):
                if i < fanout:
                    upstream = str(self._obs.addr)
                else:
                    parent = self.workers[f"w{i // fanout - 1}"]
                    upstream = parent.proxy_addr or str(self._obs.addr)
                await self.spawn_worker(f"w{i}", upstream=upstream)
        else:
            await asyncio.gather(
                *(self.spawn_worker(f"w{i}") for i in range(self.config.workers))
            )

    def child_spec(self, state: ShardState) -> dict:
        config = self.config
        return {
            "name": state.name,
            "controller_addr": str(self.addr),
            "observer_addr": self._upstreams.get(state.name, str(self._obs.addr)),
            "ip": config.ip,
            "heartbeat_interval": config.heartbeat_interval,
            "flush_interval": config.observer_flush_interval,
            "telemetry_enabled": config.worker_telemetry,
            "trace_sample": config.worker_trace_sample,
            "shm_ring_bytes": config.shm_ring_bytes,
            "proxy_port": self._proxy_ports.get(state.name, 0),
            "controller_name": config.controller_name,
        }

    async def spawn_worker(self, name: str, upstream: str | None = None) -> WorkerState:
        """Launch one worker process and wait for its W_REGISTER.

        ``upstream`` overrides the observer endpoint the worker's proxy
        dials (tree mode points it at a parent worker's proxy).  Both
        the upstream choice and the proxy port the first incarnation
        bound are remembered per name: a respawned *mid-tree* worker
        re-binds its predecessor's proxy port, so surviving children —
        whose proxies already redial a lost upstream under backoff and
        replay their BOOT frames — reattach to the same endpoint
        without being restarted themselves.
        """
        if upstream is not None:
            self._upstreams[name] = upstream
        state = await self.launch_child(name)
        if self._c_spawn is not None:
            self._c_spawn.labels(worker=name).inc()
        self.trace(EventType.WORKER_SPAWN, worker=name, pid=state.pid)
        return state

    # --------------------------------------------------------------- supervision

    async def on_registered(self, state: ShardState, fields: dict) -> None:
        # In tree mode later workers' upstreams point at this endpoint.
        self._pin_proxy_port(state, str(fields.get("proxy", "")))

    def on_heartbeat(self, state: ShardState, fields: dict) -> None:
        super().on_heartbeat(state, fields)
        if self._g_rss is not None:
            self._g_rss.labels(worker=state.name).set(state.rss_kb)
            self._g_lag.labels(worker=state.name).set(state.loop_lag_ms)
            self._g_nodes.labels(worker=state.name).set(state.node_count)

    async def on_child_dead(self, state: ShardState, reason: str) -> list[PlacedNode]:
        orphans = self._down_shard(state)
        if self._c_dead is not None:
            self._c_dead.labels(worker=state.name).inc()
        self.trace(
            EventType.WORKER_DEAD, worker=state.name, reason=reason,
            nodes=[str(p.node_id) for p in orphans],
        )
        return orphans

    async def replace_orphans(self, state: ShardState, orphans: list[PlacedNode]) -> None:
        """The worker is back: re-place what its predecessor hosted."""
        for placed in orphans:
            try:
                await self.place(placed.spec, redeploy=True)
            except ClusterError:
                continue

    # ------------------------------------------------------------------ placement

    def _fleet(self) -> dict[str, float]:
        return {name: st.load for name, st in self.workers.items() if st.alive}

    def _pin(self, spec: NodeSpec) -> str | None:
        return spec.pin

    def _host(self, placed: PlacedNode) -> ShardState:
        return self.workers[placed.worker]

    def _located(self, state: ShardState, reply: dict) -> tuple[str, str]:
        return state.name, self.config.controller_name
