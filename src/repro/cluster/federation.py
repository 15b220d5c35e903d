"""The federation root: a controller of controllers.

One :class:`RootController` supervises a set of **child controllers**
— each a full :class:`~repro.cluster.controller.ClusterController`
running its own worker fleet in its own process
(:mod:`repro.cluster.child`) — as the controller-level instantiation
of the placement tier (:mod:`repro.cluster.tier`): the same supervision
core, frame family, placed map and facade that watch worker processes,
just one tier up.  What this file adds is what only a controller tier
has:

- children either get **spawned** locally (``python -m
  repro.cluster.child SPEC``, the child host's keyword arguments as one
  JSON document) or **join** over plain TCP from anywhere (``ioverlay
  cluster --join``); a joiner is *adopted* — same state machine,
  nothing to reap or respawn;
- the bootstrap handshake is two-phase: ``W_REGISTER`` (identity,
  declared worker count/capacity/weight) is answered with ``C_WELCOME``
  (the root observer endpoint to aggregate into, plus a pinned proxy
  port on respawn), the child boots its proxy and fleet, then reports
  ``C_EVENT {event: "ready"}`` — placement only ever targets ready
  children;
- **placement is two-stage**: the root resolves every ``"@name"``
  reference against its *global* placed map (so edges cross controller
  boundaries transparently), picks a child by capacity or weighted
  policy (or the spec's ``controller`` pin), and ships the wire-form
  spec via ``W_SPAWN``; the child then places it across its own workers
  with the ordinary single-stage policies;
- the **observer tree** roots one aggregation proxy per child
  controller: a node's telemetry travels node → worker proxy → child
  controller proxy → root observer, so root ingress is
  O(children), not O(workers) — and downward control frames ride the
  same learned routes back;
- **death detection gains a third tier**: losing a child controller
  marks its *entire shard* down and re-places every orphaned spec
  through the root policy across the surviving (or respawned) children,
  in the original sinks-first order — the controller-level analog of
  the worker-death redeploy.

Everything is observable: ``ioverlay_cluster_controllers`` gauges the
ready population, controller deaths and shard redeploys bump counters,
and ``controller-join``/``controller-dead``/``shard-redeployed`` trace
events bracket every reconfiguration.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any

from repro.cluster.placement import ControllerLoad, make_controller_placement
from repro.cluster.spec import NodeSpec, PlacedNode
from repro.cluster.tier import PlacementTier, ShardState, TierConfig
from repro.core.ids import NodeId
from repro.core.msgtypes import MsgType
from repro.errors import ClusterError, CodecError
from repro.telemetry.tracing import EventType


@dataclass
class RootConfig(TierConfig):
    """Tunables of one federation root."""

    #: stage-one policy: ``capacity`` (most free declared capacity) or
    #: ``weighted`` (least load per declared weight)
    placement: str = "capacity"
    #: a child registers quickly, but is only *ready* once its whole
    #: fleet booted — both waits share this budget
    register_timeout: float = 30.0
    request_timeout: float = 30.0
    #: defaults for locally-spawned children (a join declares its own)
    workers_per_child: int = 2
    child_placement: str = "round-robin"
    #: aggregation flush period for the child-controller proxies *and*
    #: their worker proxies — the federation tree always aggregates
    #: (pure relays would multiply hops for no reduction)
    observer_flush_interval: float = 0.2


@dataclass
class ControllerState(ShardState):
    """Everything the root knows about one child controller."""

    #: declared fleet size / capacity / weight (from its registration)
    workers: int = 0
    capacity: float = 0.0
    weight: float = 1.0
    #: fleet booted, aggregation proxy attached — placement may target it
    ready: bool = False
    #: live gauge from its heartbeats
    workers_alive: int = 0


class RootController(PlacementTier):
    """Places specs across child controllers, supervises the tree.

    Children are ``repro.cluster.child`` processes launched here
    (respawned when they die, if configured) or remote joiners adopted
    on their registration (their machine owns their lifecycle).
    """

    state_class = ControllerState
    child_kind = "controller"
    trace_source = "root"
    host_module = "repro.cluster.child"

    def __init__(self, observer: Any, config: RootConfig | None = None) -> None:
        config = config or RootConfig()
        super().__init__(
            observer, config, make_controller_placement(config.placement),
            adopt_unknown=True,
        )
        #: child name -> declared worker count for local spawns
        self._spawn_workers: dict[str, int] = {}
        #: child name -> futures resolved when its ready event arrives
        self._ready_waiters: dict[str, list[asyncio.Future]] = {}
        self.shards_redeployed = 0
        tel = config.telemetry
        if tel is not None:
            reg = tel.registry
            self._g_controllers = reg.gauge(
                "ioverlay_cluster_controllers",
                "Child controllers ready for placement")
            self._g_ctl_nodes = reg.gauge(
                "ioverlay_cluster_controller_nodes",
                "Nodes hosted per child controller", ("controller",))
            self._g_ctl_workers = reg.gauge(
                "ioverlay_cluster_controller_workers_alive",
                "Live workers per child controller", ("controller",))
            self._c_join = reg.counter(
                "ioverlay_cluster_controller_join_total",
                "Child controllers joined", ("controller",))
            self._c_dead = reg.counter(
                "ioverlay_cluster_controller_dead_total",
                "Child controller deaths confirmed", ("controller",))
            self._c_shard = reg.counter(
                "ioverlay_cluster_shard_redeployed_total",
                "Whole-shard redeploys after a controller death", ("controller",))
        else:
            self._g_controllers = self._g_ctl_nodes = self._g_ctl_workers = None
            self._c_join = self._c_dead = self._c_shard = None

    @property
    def controllers(self) -> dict[str, ControllerState]:
        """The child-controller tree as the supervision core tracks it."""
        return self.children  # type: ignore[return-value]

    @property
    def controller_count(self) -> int:
        return sum(1 for st in self.controllers.values() if st.alive and st.ready)

    @property
    def controller_deaths(self) -> int:
        return self.deaths

    def _refresh_gauges(self, state: ControllerState | None = None) -> None:
        if self._g_controllers is not None:
            self._g_controllers.set(self.controller_count)
            if state is not None:
                self._g_ctl_nodes.labels(controller=state.name).set(state.node_count)
                self._g_ctl_workers.labels(controller=state.name).set(
                    state.workers_alive
                )

    # ------------------------------------------------------------------- children

    def child_spec(self, state: ShardState) -> dict:
        config = self.config
        return {
            "name": state.name,
            "root_addr": str(self.addr),
            "config": {
                "workers": self._spawn_workers.get(state.name, config.workers_per_child),
                "placement": config.child_placement,
                "ip": config.ip,
                "heartbeat_interval": config.heartbeat_interval,
                "observer_flush_interval": config.observer_flush_interval,
                "worker_telemetry": config.worker_telemetry,
                "shm_ring_bytes": config.shm_ring_bytes,
            },
        }

    async def spawn_child(self, name: str, workers: int | None = None) -> ControllerState:
        """Launch one child controller locally and wait until it is ready."""
        if workers is not None:
            self._spawn_workers[name] = workers
        await self.launch_child(name)
        return await self.wait_ready(name)

    async def wait_ready(
        self, name: str, timeout: float | None = None
    ) -> ControllerState:
        """Wait for ``name``'s fleet to finish booting (ready event)."""
        state = self.controllers.get(name)
        if state is not None and state.ready and state.alive:
            return state
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._ready_waiters.setdefault(name, []).append(future)
        try:
            await asyncio.wait_for(future, timeout or self.config.register_timeout)
        except asyncio.TimeoutError:
            raise ClusterError(
                f"child controller {name!r} did not become ready"
            ) from None
        return self.controllers[name]

    async def wait_joined(self, count: int, timeout: float = 60.0) -> None:
        """Wait until ``count`` child controllers are ready (remote joins)."""
        # Imported here: the scenarios module loads the coding algorithms,
        # and every worker imports this package at boot.
        from repro.cluster.scenarios import wait_until

        if not await wait_until(lambda: self.controller_count >= count, timeout):
            raise ClusterError(
                f"only {self.controller_count}/{count} controllers ready "
                f"after {timeout}s"
            )

    # ------------------------------------------------- bootstrap handshake

    async def on_registered(self, state: ControllerState, fields: dict) -> None:
        """A child registered: record its declarations, answer C_WELCOME."""
        state.workers = int(fields.get("workers", 0))
        state.capacity = float(fields.get("capacity", 0.0))
        state.weight = float(fields.get("weight", 1.0))
        state.ready = False
        # A welcome that cannot be sent refuses the registration: the
        # core closes the channel and traces the fault.
        await state.chan.send(
            MsgType.C_WELCOME, observer=str(self._obs.addr),
            proxy_port=self._proxy_ports.get(state.name, 0),
        )
        if self._c_join is not None:
            self._c_join.labels(controller=state.name).inc()
        self.trace(
            EventType.CONTROLLER_JOIN, controller=state.name, pid=state.pid,
            workers=state.workers, capacity=state.capacity, weight=state.weight,
        )

    def on_heartbeat(self, state: ControllerState, fields: dict) -> None:
        super().on_heartbeat(state, fields)
        state.workers_alive = int(fields.get("workers_alive", 0))
        self._refresh_gauges(state)

    def on_frame(self, state: ControllerState, type_: int, fields: dict) -> None:
        if type_ == MsgType.C_EVENT:
            self._on_event(state, fields)

    def _on_event(self, state: ControllerState, fields: dict) -> None:
        """An upward C_EVENT: ready / node-down / node-replaced."""
        event = str(fields.get("event", ""))
        if event == "ready":
            state.ready = True
            self._pin_proxy_port(state, str(fields.get("proxy", "")))
            self._refresh_gauges(state)
            for future in self._ready_waiters.pop(state.name, []):
                if not future.done():
                    future.set_result(state)
        elif event == "node-down":
            name = str(fields.get("name", ""))
            if not name:
                # A report carrying only the identity: match it against
                # the shard map so the loss still reconciles.
                node = str(fields.get("node", ""))
                name = next(
                    (n for n, p in state.placed.items()
                     if str(p.node_id) == node),
                    "",
                )
            placed = self.placed.pop(name, None)
            state.placed.pop(name, None)
            if placed is not None:
                self._obs.mark_down(placed.node_id)
        elif event == "node-replaced":
            # The child respawned a worker internally and re-placed the
            # spec: refresh the root's map so refs and control verbs
            # target the new identity.
            name = str(fields.get("name", ""))
            stale = self.placed.get(name)
            if stale is None:
                return
            try:
                node_id = NodeId.parse(str(fields.get("node", "")))
            except CodecError:
                return
            fresh = PlacedNode(
                spec=stale.spec, worker=str(fields.get("worker", "")),
                node_id=node_id, controller=state.name,
            )
            self.placed[name] = fresh
            state.placed[name] = fresh
            self.nodes_redeployed += 1
            if self._c_redeployed is not None:
                self._c_redeployed.labels(worker=fresh.worker).inc()

    # ------------------------------------------------------------------ placement

    def _fleet(self) -> dict[str, ControllerLoad]:
        return {
            name: ControllerLoad(load=st.load, capacity=st.capacity, weight=st.weight)
            for name, st in self.controllers.items()
            if st.alive and st.ready
        }

    def _pin(self, spec: NodeSpec) -> str | None:
        return spec.controller

    def _host(self, placed: PlacedNode) -> ShardState:
        return self.controllers[placed.controller]

    def _located(self, state: ShardState, reply: dict) -> tuple[str, str]:
        return str(reply.get("worker", "")), state.name

    # --------------------------------------------------------- the third tier

    async def on_child_dead(self, state: ControllerState, reason: str) -> list:
        """A whole child controller died: down its shard, then re-place it."""
        state.ready = False
        orphans = self._down_shard(state)
        if self._c_dead is not None:
            self._c_dead.labels(controller=state.name).inc()
        self._refresh_gauges()
        self.trace(
            EventType.CONTROLLER_DEAD, controller=state.name, reason=reason,
            shard=[p.spec.name for p in orphans],
        )
        if orphans:
            self._tasks.launch(
                self._redeploy_shard(state.name, orphans), f"redeploy-{state.name}"
            )
        # The shard redeploy is the root's own task (it must run for
        # adopted children too, which the core never respawns), so
        # nothing is handed to replace_orphans.
        return []

    async def _redeploy_shard(self, dead: str, orphans: list[PlacedNode]) -> None:
        """Re-place a dead controller's whole shard through the root policy.

        Orphans are replayed in their original (sinks-first) placement
        order, so every reference a spec carries is already re-placed by
        the time the spec itself is.  A pin to the dead controller is
        relaxed — landing the node elsewhere beats failing the redeploy.
        """
        try:
            await self.wait_joined(1, timeout=self.config.register_timeout)
        except ClusterError:
            return
        redeployed = []
        for orphan in orphans:
            # Refs must resolve against *new* identities, so strip the
            # stale wire form by re-placing from the original spec.
            try:
                placed = await self.place(orphan.spec, redeploy=True)
            except ClusterError:
                continue
            redeployed.append(placed.spec.name)
        self.shards_redeployed += 1
        if self._c_shard is not None:
            self._c_shard.labels(controller=dead).inc()
        self.trace(
            EventType.SHARD_REDEPLOYED, controller=dead,
            nodes=redeployed, lost=[p.spec.name for p in orphans],
        )
