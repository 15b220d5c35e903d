"""The placement tier: a supervisor whose children host placed nodes.

The control plane is one tier instantiated twice.  A
:class:`~repro.cluster.controller.ClusterController` supervises worker
processes and places node specs on them; a federation
:class:`~repro.cluster.federation.RootController` supervises whole
child controllers and places specs on *them* — same verbs
(:mod:`repro.cluster.protocol`), same supervision core
(:mod:`repro.cluster.supervise`), same bookkeeping, one level up.
:class:`PlacementTier` is that shared tier:

- the **config** every tier carries (:class:`TierConfig`: supervision
  timeouts, respawn budget, telemetry; each front keeps its defaults);
- the **placed map** and the ``place`` skeleton — choose a child,
  resolve ``"@name"`` references against the tier's own map, request
  the spawn, record it on the child's shard and in the map, count and
  trace it, notify the redeploy listener;
- the **facade** callers drive: ``deploy`` / ``stop_node`` /
  ``node_info`` / ``node_id`` and the observer verbs
  (``deploy_source`` / ``send_control`` / ``terminate_node``);
- **death bookkeeping**: a dead child's whole shard leaves the map and
  is marked down at the observer, once per node;
- **proxy-port pinning**: the first observer-proxy port a child name
  bound is remembered, so a respawn re-binds it and the proxies
  downstream redial the same endpoint instead of needing a restart.

An instantiation says only what differs: which children are eligible
and what a spec pins (:meth:`_fleet`, :meth:`_pin`), what a child boots
from (:meth:`child_spec`: its host's constructor keyword arguments, sent
as one JSON document on the command line), what registration and
heartbeats carry, and what happens to a dead child's orphans.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

from repro.cluster.spec import NodeSpec, PlacedNode, resolve_refs
from repro.cluster.supervise import ChildState, RespawnPolicy, SupervisorCore
from repro.core.ids import AppId, NodeId
from repro.core.msgtypes import MsgType
from repro.errors import ClusterError, CodecError
from repro.telemetry import Telemetry
from repro.telemetry.tracing import EventType


@dataclass
class TierConfig:
    """Tunables every placement tier carries."""

    ip: str = "127.0.0.1"
    placement: str = "round-robin"
    heartbeat_interval: float = 0.5
    #: heartbeat silence confirming a child dead (also covers channel
    #: stalls the EOF/reap paths cannot see)
    heartbeat_timeout: float = 3.0
    register_timeout: float = 20.0
    request_timeout: float = 20.0
    #: relaunch a dead (locally spawned) child under this budget and
    #: backoff; ``None`` leaves dead children dead
    respawn: RespawnPolicy | None = None
    telemetry: Telemetry | None = None
    #: enable metrics + lifecycle tracing inside each worker process so
    #: the aggregation tree has telemetry to roll up
    worker_telemetry: bool = False
    #: per-direction shared-memory ring capacity for cross-worker links
    #: (:mod:`repro.net.shm`).  On by default: a fleet under one
    #: controller is co-machine by construction, and the HELLO-time boot
    #: cookie check falls back to TCP whenever that stops being true.
    #: ``0`` forces plain TCP everywhere.
    shm_ring_bytes: int = 1 << 20


@dataclass
class ShardState(ChildState):
    """A supervised child and the shard of placed nodes it hosts."""

    #: the child's observer-proxy endpoint; whatever sits below it in
    #: the observer tree dials this instead of the root observer
    proxy_addr: str = ""
    #: live gauges from the child's heartbeats
    node_count: int = 0
    rss_kb: float = 0.0
    loop_lag_ms: float = 0.0
    #: spec name -> placement, in placement order (sinks-first order is
    #: preserved, which is what makes redeploys resolvable)
    placed: dict[str, PlacedNode] = dataclass_field(default_factory=dict)

    @property
    def load(self) -> float:
        """Total declared weight placed here (placement-policy input)."""
        return sum(p.spec.weight for p in self.placed.values())


class ObserverControl:
    """The observer surface a tier drives, over a local server.

    A standalone fleet wraps its own
    :class:`~repro.net.observer_server.ObserverServer` in this adapter;
    a federated child controller substitutes a relay shim with the same
    methods (``addr`` then points at the child's aggregation proxy and
    ``mark_down`` reports to the root instead of acting locally).
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


class PlacementTier(SupervisorCore):
    """Supervises children, places specs on them, keeps the placed map."""

    state_class = ShardState
    #: what this tier's children are, in error messages
    child_kind = "child"
    #: the ``node`` column this tier's trace events are recorded under
    trace_source = ""
    #: the module a child runs (``python -m``); it boots the host from
    #: the spec document on its command line
    host_module = ""

    def __init__(self, observer: Any, config: TierConfig, policy: Any,
                 *, adopt_unknown: bool = False) -> None:
        super().__init__(
            ip=config.ip,
            heartbeat_interval=config.heartbeat_interval,
            heartbeat_timeout=config.heartbeat_timeout,
            register_timeout=config.register_timeout,
            request_timeout=config.request_timeout,
            respawn=config.respawn,
            adopt_unknown=adopt_unknown,
        )
        self.observer = observer
        #: the observer control surface (adapter over a local server, or
        #: a federation relay shim already exposing the same methods)
        self._obs: Any = (
            observer if hasattr(observer, "mark_down") else ObserverControl(observer)
        )
        self.config = config
        self.policy = policy
        #: spec name -> current placement, across every child
        self.placed: dict[str, PlacedNode] = {}
        self.addr: NodeId | None = None
        #: called as (spec_name, placed) after every redeploy — a
        #: federated child uses this to report replacements to its root
        self.redeploy_listener: Callable[[str, PlacedNode], None] | None = None
        #: child name -> the proxy port its first incarnation bound
        self._proxy_ports: dict[str, int] = {}
        self.nodes_redeployed = 0
        tel = config.telemetry
        if tel is not None:
            self._c_placed = tel.registry.counter(
                "ioverlay_cluster_node_placed_total", "Nodes placed on workers", ("worker",))
            self._c_redeployed = tel.registry.counter(
                "ioverlay_cluster_node_redeployed_total",
                "Nodes re-placed after a failure", ("worker",))
        else:
            self._c_placed = self._c_redeployed = None

    # ------------------------------------------------------- what a tier says

    def _fleet(self) -> Mapping[str, Any]:
        """Children placement may target now: name -> policy input."""
        raise NotImplementedError

    def _pin(self, spec: NodeSpec) -> str | None:
        """The child ``spec`` insists on at this tier, if any."""
        raise NotImplementedError

    def _host(self, placed: PlacedNode) -> ShardState:
        """The child hosting ``placed``."""
        raise NotImplementedError

    def _located(self, state: ShardState, reply: dict) -> tuple[str, str]:
        """``(worker, controller)`` a node spawned under ``state`` sits on."""
        raise NotImplementedError

    def child_spec(self, state: ShardState) -> dict[str, Any]:
        """The child host's constructor keyword arguments, as JSON values.

        Node ids travel as ``"ip:port"`` strings; the host parses them.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------ lifecycle

    async def start(self) -> None:
        """Bind the control server children register against."""
        await self.start_server()
        self.addr = NodeId(self.ip, self.port)

    def child_argv(self, state: ShardState) -> list[str]:
        assert self.addr is not None, "start() first"
        return [sys.executable, "-m", self.host_module,
                json.dumps(self.child_spec(state))]

    def child_env(self, state: ChildState) -> dict[str, str]:
        env = os.environ.copy()
        # The child must import this very source tree, wherever this
        # process was launched from.
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

    def trace(self, event: str, **detail: Any) -> None:
        tel = self.config.telemetry
        if tel is not None and tel.tracer.enabled:
            tel.tracer.append_raw(time.monotonic(), self.trace_source, event, "", 0, detail)

    # --------------------------------------------------------------- supervision

    def on_heartbeat(self, state: ShardState, fields: dict) -> None:
        state.node_count = int(fields.get("nodes", 0))
        state.rss_kb = float(fields.get("rss_kb", 0.0))
        state.loop_lag_ms = float(fields.get("loop_lag_ms", 0.0))

    def _pin_proxy_port(self, state: ShardState, proxy_addr: str) -> None:
        """Record the child's proxy endpoint; remember its first port."""
        state.proxy_addr = proxy_addr
        if proxy_addr:
            try:
                self._proxy_ports.setdefault(state.name, NodeId.parse(proxy_addr).port)
            except CodecError:
                pass

    def _down_shard(self, state: ShardState) -> list[PlacedNode]:
        """A child died: its shard leaves the map; returns the orphans.

        The hosted nodes died with the child.  Surviving peers already
        ran the node-level failure domino through their own transports
        (EOF -> BROKEN_LINK -> BROKEN_SOURCE cascade); here the
        *observer's* view is reconciled.
        """
        orphans = list(state.placed.values())
        state.placed.clear()
        for placed in orphans:
            self.placed.pop(placed.spec.name, None)
            self._obs.mark_down(placed.node_id)
        return orphans

    # ------------------------------------------------------------------ placement

    def _choose_child(self, spec: NodeSpec, *, relax_pin: bool) -> ShardState:
        fleet = self._fleet()
        pin = self._pin(spec)
        if pin in fleet:
            return self.children[pin]
        if pin is not None and not relax_pin:
            raise ClusterError(
                f"spec {spec.name!r} pins {self.child_kind} {pin!r}, "
                "which is not live"
            )
        return self.children[self.policy.choose(spec, fleet)]

    async def place(self, spec: NodeSpec, *, redeploy: bool = False) -> PlacedNode:
        """Place one spec: choose a child, spawn the node, record it.

        References resolve against this tier's own placed map, so at the
        root an edge may point at a node under any other controller; the
        already-resolved wire form passes through the child's own
        resolution untouched.  A redeploy relaxes a pin to a child that
        is gone — landing the node elsewhere beats losing it.
        """
        if spec.name in self.placed:
            raise ClusterError(f"node {spec.name!r} is already placed")
        state = self._choose_child(spec, relax_pin=redeploy)
        wire_kwargs = resolve_refs(
            spec.kwargs, lambda name: self.placed[name].node_id
        )
        reply = await self.request(
            state, MsgType.W_SPAWN,
            name=spec.name, algorithm=spec.algorithm, kwargs=wire_kwargs,
            weight=spec.weight, pin=spec.pin,
        )
        try:
            node_id = NodeId.parse(str(reply["node"]))
        except (KeyError, CodecError) as exc:
            raise ClusterError(
                f"{self.child_kind} {state.name!r} sent a bad spawn reply: {exc!r}"
            ) from exc
        worker, controller = self._located(state, reply)
        placed = PlacedNode(
            spec=spec, worker=worker, node_id=node_id, controller=controller
        )
        state.placed[spec.name] = placed
        self.placed[spec.name] = placed
        if self._c_placed is not None:
            self._c_placed.labels(worker=placed.worker).inc()
        detail = {"worker": placed.worker, "name": spec.name, "node": str(placed.node_id)}
        self.trace(EventType.NODE_PLACED, **detail)
        if redeploy:
            self.nodes_redeployed += 1
            if self._c_redeployed is not None:
                self._c_redeployed.labels(worker=placed.worker).inc()
            self.trace(EventType.NODE_REDEPLOYED, **detail)
            if self.redeploy_listener is not None:
                self.redeploy_listener(spec.name, placed)
        return placed

    async def deploy(self, specs: Iterable[NodeSpec]) -> dict[str, PlacedNode]:
        """Place a whole topology (specs ordered sinks-first)."""
        return {spec.name: await self.place(spec) for spec in specs}

    async def stop_node(self, name: str) -> None:
        """Gracefully stop one placed node and forget it everywhere."""
        placed = self._lookup(name)
        state = self._host(placed)
        await self.request(state, MsgType.W_STOP_NODE, name=name)
        state.placed.pop(name, None)
        self.placed.pop(name, None)
        self._obs.mark_down(placed.node_id)

    async def node_info(self, name: str) -> dict:
        """Engine and algorithm facts for one placed node, live."""
        return await self.request(
            self._host(self._lookup(name)), MsgType.W_NODE_INFO, name=name
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
        """Algorithm-specific control verb, routed down the observer tree."""
        self._obs.send_control(
            self.node_id(name), type_, param1=param1, param2=param2, app=app
        )

    def terminate_node(self, name: str) -> None:
        self._obs.terminate_node(self.node_id(name))
