"""The child-controller process: one fleet shard of a federated cluster.

A :class:`ChildControllerHost` runs a full
:class:`~repro.cluster.controller.ClusterController` — worker fleet,
placement, supervision, respawn — that answers to a federation root
instead of owning the observer.  A root spawns one as ``python -m
repro.cluster.child SPEC`` (``SPEC``: the JSON document of this class's
keyword arguments); a controller on another machine joins with
``ioverlay cluster --join IP:PORT``, which builds the same host in its
own process.  Either way it runs:

- **bootstrap**: dial the root, send ``W_REGISTER`` (name, pid,
  declared worker count / capacity / weight), wait for ``C_WELCOME`` —
  it names the root observer endpoint this shard aggregates into and,
  on a respawn, the proxy port to re-bind — then boot the shard's
  aggregation proxy and worker fleet and report ``C_EVENT ready``;
- **serving**: the same request verbs a worker answers (``W_SPAWN`` /
  ``W_STOP_NODE`` / ``W_NODE_INFO`` / ``W_SHUTDOWN``, over the shared
  host half :class:`~repro.cluster.host.ControlHost`) map onto the
  local controller's place/stop/info/stop; each request is served in
  its own task so a slow worker spawn never stalls the heartbeat stream;
- **reporting**: periodic ``W_HEARTBEAT`` frames carry shard gauges
  (placed nodes, live workers, peak RSS); internal worker respawns
  surface as ``C_EVENT node-replaced`` so the root's global map tracks
  the new identities, and node losses as ``C_EVENT node-down``;
- **observer relay**: the local controller's observer surface is a
  :class:`RootRelayObserver` — its ``addr`` is the shard's aggregation
  proxy (workers attach there, the proxy attaches to the root observer)
  and its ``mark_down`` reports upward instead of acting locally, so
  the root observer stays the single source of liveness truth.

Root disappearance stops the shard: a headless child controller would
keep placing nobody's specs against nobody's observer.
"""

from __future__ import annotations

import asyncio
import json
import sys

from repro.cluster.controller import ClusterConfig, ClusterController
from repro.cluster.host import ControlHost, run_host
from repro.cluster.spec import NodeSpec, PlacedNode
from repro.core.ids import AppId, NodeId
from repro.core.msgtypes import MsgType
from repro.errors import ClusterError
from repro.net.proxy import ObserverProxy


class RootRelayObserver:
    """The observer surface a federated shard hands its controller.

    ``addr`` points worker proxies at the shard's aggregation proxy;
    liveness changes relay upward as ``C_EVENT`` frames.  The control
    verbs (deploy/control/terminate) are root-driven in a federation —
    reaching them here means a scenario bypassed the root, so they fail
    loudly instead of acting on half the picture.
    """

    def __init__(self, host: "ChildControllerHost") -> None:
        self._host = host

    @property
    def addr(self) -> NodeId:
        assert self._host.proxy is not None, "proxy not started"
        return self._host.proxy.addr

    def mark_down(self, node: NodeId) -> None:
        # The root keys its global placed map by spec name; resolve it
        # here (the local controller has already popped its own map by
        # the time mark_down fires) and carry the identity alongside.
        self._host.send_event(
            "node-down", name=self._host.node_name(node), node=str(node)
        )

    def deploy_source(self, node: NodeId, app: AppId, payload_size: int) -> None:
        raise ClusterError("deploy_source is root-driven in a federation")

    def send_control(self, node: NodeId, type_: int, *, param1: int,
                     param2: int, app: AppId) -> None:
        raise ClusterError("send_control is root-driven in a federation")

    def terminate_node(self, node: NodeId) -> None:
        raise ClusterError("terminate_node is root-driven in a federation")


class ChildControllerHost(ControlHost):
    """One federated shard: aggregation proxy + controller + root channel."""

    # A W_SPAWN spans a worker-side spawn round trip, and heartbeats and
    # the requests behind it must keep flowing meanwhile.
    concurrent_requests = True

    def __init__(
        self,
        name: str,
        root_addr: NodeId | str,
        config: ClusterConfig | dict,
        capacity: float = 0.0,
        weight: float = 1.0,
    ) -> None:
        if isinstance(config, dict):  # a spec's fields
            config = ClusterConfig(**config)
        super().__init__(name, root_addr, config.heartbeat_interval)
        self.config = config
        self.capacity = capacity
        self.weight = weight
        #: the shard proxy always aggregates, at its workers' period: it
        #: is a mid-tree node of the root's observer tree (one ingress
        #: per child controller)
        self.flush_interval = config.observer_flush_interval or 0.2
        self.proxy: ObserverProxy | None = None
        self.controller: ClusterController | None = None
        #: node identity (ip:port) -> spec name, for upward node-down
        #: reports after the controller has forgotten the placement
        self._node_names: dict[str, str] = {}

    # ------------------------------------------------------------------ lifecycle

    async def start(self) -> None:
        """Join the root, boot the shard, report ready."""
        await self._register(
            workers=self.config.workers, capacity=self.capacity, weight=self.weight
        )
        welcome = await asyncio.wait_for(self._chan.recv(), 30.0)
        if welcome.type != MsgType.C_WELCOME:
            raise ClusterError(
                f"expected C_WELCOME from root, got type {welcome.type}"
            )
        fields = welcome.fields()
        root_observer = NodeId.parse(str(fields["observer"]))
        pinned_port = int(fields.get("proxy_port", 0))
        self.proxy = ObserverProxy(
            NodeId(self.config.ip, pinned_port), root_observer,
            flush_interval=self.flush_interval, telemetry=self.config.telemetry,
        )
        await self.proxy.start()
        self.config.controller_name = self.name
        self.controller = ClusterController(RootRelayObserver(self), self.config)
        self.controller.redeploy_listener = self._on_local_redeploy
        await self.controller.start()
        self._serve_forever()
        self.send_event("ready", proxy=str(self.proxy.addr))

    async def drain(self) -> None:
        if self.controller is not None:
            await self.controller.stop()
        if self.proxy is not None:
            await self.proxy.stop()

    def gauges(self) -> dict:
        workers = self.controller.workers.values()
        return {
            "nodes": len(self.controller.placed),
            "workers_alive": sum(1 for st in workers if st.alive),
        }

    # ---------------------------------------------------------------- reporting

    def send_event(self, event: str, **fields: object) -> None:
        """Best-effort upward C_EVENT (ready / node-down / node-replaced)."""
        chan = self._chan
        if chan is None or chan.is_closing():
            return

        async def _send() -> None:
            try:
                await chan.send(MsgType.C_EVENT, event=event, **fields)
            except (ConnectionError, OSError):
                pass

        self._tasks.launch(_send(), f"event-{event}")

    def _on_local_redeploy(self, name: str, placed: PlacedNode) -> None:
        self._node_names[str(placed.node_id)] = name
        self.send_event(
            "node-replaced", name=name, node=str(placed.node_id),
            worker=placed.worker,
        )

    def node_name(self, node: NodeId) -> str:
        """The spec name placed at ``node`` (empty if unknown here)."""
        return self._node_names.get(str(node), "")

    # ------------------------------------------------------------ request verbs

    async def spawn(self, fields: dict) -> dict:
        spec = NodeSpec(
            name=str(fields["name"]),
            algorithm=str(fields["algorithm"]),
            kwargs=dict(fields.get("kwargs", {})),
            weight=float(fields.get("weight", 1.0)),
            pin=fields.get("pin") or None,
        )
        placed = await self.controller.place(spec)
        self._node_names[str(placed.node_id)] = spec.name
        return {
            "name": spec.name, "node": str(placed.node_id), "worker": placed.worker
        }

    async def stop_node(self, fields: dict) -> dict:
        name = str(fields["name"])
        stopped = self.controller.placed.get(name)
        await self.controller.stop_node(name)
        if stopped is not None:
            self._node_names.pop(str(stopped.node_id), None)
        return {"ok": True}

    async def node_info(self, fields: dict) -> dict:
        return await self.controller.node_info(str(fields["name"]))


# ----------------------------------------------------------------- entry point

if __name__ == "__main__":
    # argv[1] is the root's spec: this host's keyword arguments.
    sys.exit(run_host(ChildControllerHost(**json.loads(sys.argv[1]))))
