"""The placement controller: spawn, place, supervise a worker fleet.

The :class:`ClusterController` is the cluster-level analog of the
paper's observer control panel.  It

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
  transport teardown — and, with ``respawn=True``, relaunches the
  worker under the core's consecutive-respawn budget and re-places its
  specs.

The :class:`WorkerSupervisor` is the process-level frontend of the
supervision core; the federation tier (:mod:`repro.cluster.federation`)
runs a second frontend over whole child controllers.  In a federated
deployment the controller answers to a root instead of owning the
observer: the ``observer`` argument then is a relay shim rather than an
:class:`~repro.net.observer_server.ObserverServer` (see
:class:`ObserverControl`).

Every cluster lifecycle step is observable: ``worker-spawn``,
``worker-dead``, ``node-placed`` and ``node-redeployed`` each bump a
labelled counter and append a trace event when telemetry is attached.
"""

from __future__ import annotations

import asyncio
import os
import sys
import time
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.cluster.placement import make_placement
from repro.cluster.spec import NodeSpec, PlacedNode, resolve_refs
from repro.cluster.supervise import (
    WORKER_FAMILY,
    ChildState,
    RespawnPolicy,
    SupervisorCore,
)
from repro.core.ids import AppId, NodeId
from repro.core.msgtypes import MsgType
from repro.errors import ClusterError, CodecError
from repro.telemetry import Telemetry
from repro.telemetry.tracing import EventType


@dataclass
class ClusterConfig:
    """Tunables of one controller-led fleet."""

    workers: int = 2
    placement: str = "round-robin"
    ip: str = "127.0.0.1"
    heartbeat_interval: float = 0.5
    #: heartbeat silence confirming a worker dead (also covers channel
    #: stalls the EOF/reap paths cannot see)
    heartbeat_timeout: float = 3.0
    register_timeout: float = 20.0
    request_timeout: float = 20.0
    #: relaunch a dead worker and re-place its specs (new identities)
    respawn: bool = False
    #: consecutive early-death respawns tolerated before abandoning the
    #: worker (exponential backoff between attempts; see RespawnPolicy)
    respawn_max: int = 5
    respawn_backoff: float = 0.25
    respawn_backoff_max: float = 5.0
    #: surviving this long resets a worker's respawn streak
    respawn_min_uptime: float = 5.0
    telemetry: Telemetry | None = None
    #: wire the workers' observer proxies into an aggregation tree with
    #: this fan-out: the first ``observer_fanout`` workers attach to the
    #: root observer, worker ``i`` thereafter to worker ``i//fanout - 1``'s
    #: proxy.  ``0`` (the default) keeps the flat PR-5 funnel layout.
    observer_fanout: int = 0
    #: aggregation flush period for the workers' proxies; required when
    #: ``observer_fanout`` is set (a tree of pure relays would loop every
    #: frame through more hops for no reduction)
    observer_flush_interval: float | None = None
    #: enable metrics + lifecycle tracing inside each worker process so
    #: the aggregation tree has telemetry to roll up
    worker_telemetry: bool = False
    #: head-sampling divisor forwarded to the workers' tracers
    worker_trace_sample: int = 1
    #: per-direction shared-memory ring capacity for cross-worker links
    #: (:mod:`repro.net.shm`).  On by default: a fleet under one
    #: controller is co-machine by construction, and the HELLO-time boot
    #: cookie check falls back to TCP whenever that stops being true.
    #: ``0`` forces plain TCP everywhere.
    shm_ring_bytes: int = 1 << 20
    #: run worker processes on uvloop when importable (opt-in; silently
    #: falls back to stock asyncio, and W_REGISTER reports which one ran)
    uvloop: bool = False
    #: identity of the controller this fleet answers to; workers stamp it
    #: on their registrations and heartbeats so a federated deployment
    #: can attribute every process gauge to its controller shard
    controller_name: str = ""


@dataclass
class WorkerState(ChildState):
    """Everything the controller knows about one fleet process."""

    rss_kb: float = 0.0
    loop_lag_ms: float = 0.0
    node_count: int = 0
    #: the worker's observer-proxy endpoint (from W_REGISTER); in tree
    #: mode later workers dial this instead of the root observer
    proxy_addr: str = ""
    #: event-loop implementation the worker reported ("asyncio"/"uvloop")
    loop_impl: str = ""
    #: spec name -> placement, in placement order (sinks-first order is
    #: preserved, which is what makes redeploys resolvable)
    placed: dict[str, PlacedNode] = dataclass_field(default_factory=dict)

    @property
    def load(self) -> float:
        """Total declared weight placed here (bin-packing input)."""
        return sum(p.spec.weight for p in self.placed.values())


class ObserverControl:
    """The observer surface the controller drives, over a local server.

    A standalone fleet wraps its own
    :class:`~repro.net.observer_server.ObserverServer` in this adapter;
    a federated child controller substitutes a relay shim with the same
    four methods (``addr`` then points at the child's aggregation proxy
    and ``mark_down`` reports to the root instead of acting locally).
    """

    def __init__(self, server: Any) -> None:
        self._server = server

    @property
    def addr(self) -> NodeId:
        return self._server.addr

    def mark_down(self, node: NodeId) -> None:
        self._server.observer.mark_down(node)

    def deploy_source(self, node: NodeId, app: AppId, payload_size: int) -> None:
        self._server.observer.deploy_source(node, app, payload_size)

    def send_control(self, node: NodeId, type_: int, *, param1: int,
                     param2: int, app: AppId) -> None:
        self._server.observer.send_control(
            node, type_, param1=param1, param2=param2, app=app
        )

    def terminate_node(self, node: NodeId) -> None:
        self._server.observer.terminate_node(node)


class WorkerSupervisor(SupervisorCore):
    """Process-level frontend of the supervision core.

    Children are ``repro.cluster.worker`` subprocesses; registration
    carries the worker's observer-proxy endpoint (pinned across
    respawns so mid-tree children reattach on their own redial), and
    death hands the hosted specs back to the controller for
    re-placement.
    """

    state_class = WorkerState

    def __init__(self, controller: "ClusterController") -> None:
        config = controller.config
        super().__init__(
            WORKER_FAMILY,
            ip=config.ip,
            heartbeat_interval=config.heartbeat_interval,
            heartbeat_timeout=config.heartbeat_timeout,
            register_timeout=config.register_timeout,
            request_timeout=config.request_timeout,
            respawn=config.respawn,
            respawn_policy=RespawnPolicy(
                max_consecutive=config.respawn_max,
                backoff_base=config.respawn_backoff,
                backoff_max=config.respawn_backoff_max,
                min_uptime=config.respawn_min_uptime,
            ),
        )
        self.controller = controller

    # ------------------------------------------------------------------- hooks

    def child_argv(self, state: ChildState) -> list[str]:
        return self.controller._worker_argv(state.name)

    def child_env(self, state: ChildState) -> dict[str, str]:
        env = os.environ.copy()
        # The worker must import this very source tree, wherever the
        # controller was launched from.
        src_root = str(Path(__file__).resolve().parents[2])
        existing_path = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = (
            src_root + os.pathsep + existing_path if existing_path else src_root
        )
        # A worker builds and frees a few hundred KiB of ring batch per
        # wakeup.  glibc maps and unmaps every block above its threshold
        # (128 KiB, raised only if a larger block happens to be freed),
        # so left adaptive the same fleet runs with or without a page
        # fault per 4 KiB moved depending on its start-up history.
        env.setdefault("MALLOC_MMAP_THRESHOLD_", str(16 << 20))
        env.setdefault("MALLOC_TRIM_THRESHOLD_", str(32 << 20))
        return env

    def on_registered(self, state: ChildState, fields: dict) -> None:
        assert isinstance(state, WorkerState)
        state.proxy_addr = str(fields.get("proxy", ""))
        state.loop_impl = str(fields.get("loop", ""))
        if state.proxy_addr:
            try:
                self.controller._proxy_ports.setdefault(
                    state.name, NodeId.parse(state.proxy_addr).port
                )
            except CodecError:
                pass

    def on_heartbeat(self, state: ChildState, fields: dict) -> None:
        assert isinstance(state, WorkerState)
        state.rss_kb = float(fields.get("rss_kb", 0.0))
        state.loop_lag_ms = float(fields.get("loop_lag_ms", 0.0))
        state.node_count = int(fields.get("nodes", 0))
        ctl = self.controller
        if ctl._g_rss is not None:
            ctl._g_rss.labels(worker=state.name).set(state.rss_kb)
            ctl._g_lag.labels(worker=state.name).set(state.loop_lag_ms)
            ctl._g_nodes.labels(worker=state.name).set(state.node_count)

    async def on_child_dead(self, state: ChildState, reason: str) -> list[PlacedNode]:
        assert isinstance(state, WorkerState)
        return self.controller._note_worker_dead(state, reason)

    async def replace_orphans(self, state: ChildState, orphans: list[PlacedNode]) -> None:
        for placed in orphans:
            try:
                await self.controller.place(placed.spec, redeploy=True)
            except ClusterError:
                continue

    def trace(self, event: str, **detail: Any) -> None:
        self.controller._trace(event, **detail)


class ClusterController:
    """Spawns worker processes, places nodes, supervises the fleet."""

    def __init__(self, observer: Any, config: ClusterConfig | None = None) -> None:
        self.observer = observer
        #: the observer control surface (adapter over a local server, or
        #: a federation relay shim already exposing the four methods)
        self._obs: Any = (
            observer if hasattr(observer, "mark_down") else ObserverControl(observer)
        )
        self.config = config or ClusterConfig()
        self.policy = make_placement(self.config.placement)
        self.supervisor = WorkerSupervisor(self)
        #: spec name -> current placement, across all workers
        self.placed: dict[str, PlacedNode] = {}
        self.addr: NodeId | None = None
        #: called as (spec_name, placed) after every redeploy — a
        #: federated child uses this to report replacements to its root
        self.redeploy_listener: Callable[[str, PlacedNode], None] | None = None
        #: worker name -> observer endpoint its proxy dials (tree wiring)
        self._upstreams: dict[str, str] = {}
        #: worker name -> the proxy port its first incarnation bound; a
        #: respawn re-binds it so downstream proxies redial the same
        #: endpoint instead of needing their own restart
        self._proxy_ports: dict[str, int] = {}
        self.nodes_redeployed = 0
        tel = self.config.telemetry
        if tel is not None:
            reg = tel.registry
            self._c_spawn = reg.counter(
                "ioverlay_cluster_worker_spawn_total", "Worker processes launched", ("worker",))
            self._c_dead = reg.counter(
                "ioverlay_cluster_worker_dead_total", "Worker deaths confirmed", ("worker",))
            self._c_placed = reg.counter(
                "ioverlay_cluster_node_placed_total", "Nodes placed on workers", ("worker",))
            self._c_redeployed = reg.counter(
                "ioverlay_cluster_node_redeployed_total",
                "Nodes re-placed after their worker died", ("worker",))
            self._g_rss = reg.gauge(
                "ioverlay_cluster_worker_rss_kb", "Worker peak RSS (KiB)", ("worker",))
            self._g_lag = reg.gauge(
                "ioverlay_cluster_worker_loop_lag_ms", "Worker event-loop lag (ms)", ("worker",))
            self._g_nodes = reg.gauge(
                "ioverlay_cluster_worker_nodes", "Nodes hosted per worker", ("worker",))
        else:
            self._c_spawn = self._c_dead = self._c_placed = self._c_redeployed = None
            self._g_rss = self._g_lag = self._g_nodes = None

    # ----------------------------------------------------- supervision facade

    @property
    def workers(self) -> dict[str, WorkerState]:
        """The fleet as the supervision core tracks it."""
        return self.supervisor.children  # type: ignore[return-value]

    @property
    def worker_deaths(self) -> int:
        return self.supervisor.deaths

    # ------------------------------------------------------------------ telemetry

    def _trace(self, event: str, **detail: Any) -> None:
        tel = self.config.telemetry
        if tel is not None and tel.tracer.enabled:
            tel.tracer.append_raw(time.monotonic(), "controller", event, "", 0, detail)

    # ------------------------------------------------------------------ lifecycle

    async def start(self) -> None:
        """Bind the control server, then launch and await the fleet."""
        await self.supervisor.start_server()
        self.addr = NodeId(self.config.ip, self.supervisor.port)
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

    async def stop(self) -> None:
        """Drain the fleet: W_SHUTDOWN everywhere, then reap with escalation.

        Idempotent: nested or concurrent calls (a signal racing a normal
        teardown, a stop during an in-flight respawn) all resolve to one
        teardown — see :meth:`SupervisorCore.stop`.
        """
        await self.supervisor.stop()

    # ------------------------------------------------------------------- spawning

    def _worker_argv(self, name: str) -> list[str]:
        assert self.addr is not None, "start() first"
        upstream = self._upstreams.get(name, str(self._obs.addr))
        argv = [
            sys.executable, "-m", "repro.cluster.worker",
            "--name", name,
            "--controller", str(self.addr),
            "--observer", upstream,
            "--ip", self.config.ip,
            "--heartbeat-interval", str(self.config.heartbeat_interval),
        ]
        if self.config.controller_name:
            argv += ["--controller-name", self.config.controller_name]
        if self.config.observer_flush_interval is not None:
            argv += ["--flush-interval", str(self.config.observer_flush_interval)]
        if self.config.worker_telemetry:
            argv += ["--telemetry", "--trace-sample",
                     str(self.config.worker_trace_sample)]
        if self.config.shm_ring_bytes > 0:
            argv += ["--shm-ring-bytes", str(self.config.shm_ring_bytes)]
        if self.config.uvloop:
            argv += ["--uvloop"]
        pinned_port = self._proxy_ports.get(name, 0)
        if pinned_port:
            argv += ["--proxy-port", str(pinned_port)]
        return argv

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
        state = await self.supervisor.spawn_child(name)
        assert isinstance(state, WorkerState)
        if self._c_spawn is not None:
            self._c_spawn.labels(worker=name).inc()
        self._trace(EventType.WORKER_SPAWN, worker=name, pid=state.pid)
        return state

    def _note_worker_dead(self, state: WorkerState, reason: str) -> list[PlacedNode]:
        """Death bookkeeping: reconcile the observer, free the shard."""
        orphans = list(state.placed.values())
        state.placed.clear()
        for placed in orphans:
            # The hosted nodes died with the process.  Surviving peers
            # already ran the node-level failure domino through their own
            # transports (EOF -> BROKEN_LINK -> BROKEN_SOURCE cascade);
            # here the *observer's* view is reconciled.
            self.placed.pop(placed.spec.name, None)
            self._obs.mark_down(placed.node_id)
        if self._c_dead is not None:
            self._c_dead.labels(worker=state.name).inc()
        self._trace(
            EventType.WORKER_DEAD, worker=state.name, reason=reason,
            nodes=[str(p.node_id) for p in orphans],
        )
        return orphans

    # ------------------------------------------------------------------ placement

    def _choose_worker(self, spec: NodeSpec) -> str:
        live = {name: st.load for name, st in self.workers.items() if st.alive}
        if spec.pin is not None:
            if spec.pin not in live:
                raise ClusterError(
                    f"spec {spec.name!r} pins worker {spec.pin!r}, which is not live"
                )
            return spec.pin
        return self.policy.choose(spec, live)

    async def place(self, spec: NodeSpec, *, redeploy: bool = False) -> PlacedNode:
        """Place one spec: choose a worker, spawn the node, record it."""
        if spec.name in self.placed:
            raise ClusterError(f"node {spec.name!r} is already placed")
        worker = self._choose_worker(spec)
        state = self.workers[worker]
        wire_kwargs = resolve_refs(
            spec.kwargs, lambda name: self.placed[name].node_id
        )
        reply = await self.supervisor.request(
            state, MsgType.W_SPAWN,
            name=spec.name, algorithm=spec.algorithm, kwargs=wire_kwargs,
        )
        node_id = NodeId.parse(str(reply["node"]))
        placed = PlacedNode(
            spec=spec, worker=worker, node_id=node_id,
            controller=self.config.controller_name,
        )
        state.placed[spec.name] = placed
        self.placed[spec.name] = placed
        if self._c_placed is not None:
            self._c_placed.labels(worker=worker).inc()
        self._trace(
            EventType.NODE_PLACED, worker=worker, name=spec.name, node=str(node_id)
        )
        if redeploy:
            self.nodes_redeployed += 1
            if self._c_redeployed is not None:
                self._c_redeployed.labels(worker=worker).inc()
            self._trace(
                EventType.NODE_REDEPLOYED, worker=worker, name=spec.name,
                node=str(node_id),
            )
            if self.redeploy_listener is not None:
                self.redeploy_listener(spec.name, placed)
        return placed

    async def deploy(self, specs: Iterable[NodeSpec]) -> dict[str, PlacedNode]:
        """Place a whole topology (specs ordered sinks-first)."""
        return {spec.name: await self.place(spec) for spec in specs}

    async def stop_node(self, name: str) -> None:
        """Gracefully stop one placed node and forget it everywhere."""
        placed = self._lookup(name)
        state = self.workers[placed.worker]
        await self.supervisor.request(state, MsgType.W_STOP_NODE, name=name)
        state.placed.pop(name, None)
        self.placed.pop(name, None)
        self._obs.mark_down(placed.node_id)

    async def node_info(self, name: str) -> dict:
        """Engine and algorithm facts for one placed node, live."""
        placed = self._lookup(name)
        return await self.supervisor.request(
            self.workers[placed.worker], MsgType.W_NODE_INFO, name=name
        )

    def _lookup(self, name: str) -> PlacedNode:
        try:
            return self.placed[name]
        except KeyError:
            raise ClusterError(f"no placed node named {name!r}") from None

    def node_id(self, name: str) -> NodeId:
        """The placed identity of spec ``name``."""
        return self._lookup(name).node_id

    # ---------------------------------------------- observer-driven deployment

    def deploy_source(self, name: str, app: AppId, payload_size: int = 5120) -> None:
        """Start a paced application source on a placed node (``sDeploy``)."""
        self._obs.deploy_source(self.node_id(name), app, payload_size)

    def send_control(
        self, name: str, type_: int, param1: int = 0, param2: int = 0, app: AppId = 0
    ) -> None:
        """Algorithm-specific control verb, routed via the worker's proxy."""
        self._obs.send_control(
            self.node_id(name), type_, param1=param1, param2=param2, app=app
        )

    def terminate_node(self, name: str) -> None:
        self._obs.terminate_node(self.node_id(name))
