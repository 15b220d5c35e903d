"""The simulated overlay network: nodes, links, observer, and the clock.

``SimNetwork`` is the top-level object experiments interact with.  It

- allocates virtualized node identities (many per simulated host, like
  iOverlay's virtualized deployment),
- hosts one :class:`~repro.sim.engine.SimEngine` per node,
- implements the engine-facing :class:`~repro.sim.engine.Fabric` (link
  creation with a configurable latency model) and the observer-facing
  :class:`~repro.observer.observer.ObserverTransport`,
- runs the observer's periodic status polling,
- offers measurement helpers the experiments read link throughput from.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from repro.core.algorithm import Algorithm
from repro.core.bandwidth import BandwidthSpec
from repro.core.ids import NodeId
from repro.core.message import Message
from repro.errors import ConfigurationError, UnknownNodeError
from repro.observer.observer import Observer
from repro.sim.engine import EngineConfig, SimEngine
from repro.sim.failure import LEAVE_GRACE, NodeFactory, announce_leave
from repro.sim.kernel import Kernel
from repro.sim.link import SimLink
from repro.telemetry import Telemetry

#: latency applied to node <-> observer control traffic
DEFAULT_OBSERVER_LATENCY = 0.002

LatencyModel = Callable[[NodeId, NodeId], float]


@dataclass
class NetworkConfig:
    """Network-wide defaults (individual nodes may override engine knobs)."""

    #: default one-way latency between overlay nodes, seconds; must be
    #: positive — zero-latency loops would let tasks exchange an unbounded
    #: number of messages without advancing virtual time.
    default_latency: float = 0.005
    socket_buffer: int = 4
    observer_poll_interval: float = 1.0
    bootstrap_fanout: int = 8
    engine: EngineConfig = field(default_factory=EngineConfig)
    seed: int = 0
    #: one shared telemetry unit for the whole simulated cluster; ``None``
    #: (the default) leaves every engine uninstrumented.  Series are
    #: distinguished by their ``node`` label, and the tracer observes
    #: message lifecycles across all nodes under one virtual clock.
    telemetry: Telemetry | None = None


class SimNetwork:
    """A virtual overlay deployment under one discrete-event kernel."""

    def __init__(self, config: NetworkConfig | None = None) -> None:
        self.config = config or NetworkConfig()
        if self.config.default_latency <= 0:
            raise ConfigurationError("default_latency must be positive")
        self.kernel = Kernel(seed=self.config.seed)
        self.observer = Observer(
            transport=self,
            bootstrap_fanout=self.config.bootstrap_fanout,
            seed=self.config.seed,
        )
        self.engines: dict[NodeId, SimEngine] = {}
        self.names: dict[str, NodeId] = {}
        self._labels: dict[NodeId, str] = {}
        self._latency_model: LatencyModel | None = None
        self._next_host = 1
        self._started = False

    # ------------------------------------------------------------------ topology

    def set_latency_model(self, model: LatencyModel) -> None:
        """Install a per-pair one-way latency function (e.g. geographic)."""
        self._latency_model = model

    def latency(self, src: NodeId, dst: NodeId) -> float:
        if self._latency_model is not None:
            value = self._latency_model(src, dst)
            if value <= 0:
                raise ConfigurationError(f"latency model returned {value} for {src}->{dst}")
            return value
        return self.config.default_latency

    def add_node(
        self,
        algorithm: Algorithm,
        name: str | None = None,
        bandwidth: BandwidthSpec | None = None,
        config: EngineConfig | None = None,
        node_id: NodeId | None = None,
    ) -> NodeId:
        """Create a virtualized overlay node running ``algorithm``.

        Node identities default to sequential addresses in ``10.0.0.0/16``
        with the iOverlay convention of IP:port uniqueness, so several
        nodes may share one simulated host address with distinct ports.
        """
        if node_id is None:
            host = self._next_host
            self._next_host += 1
            node_id = NodeId(f"10.0.{host // 250}.{host % 250 + 1}", 7000)
        if node_id in self.engines:
            raise ConfigurationError(f"duplicate node id {node_id}")
        engine_config = config or replace(self.config.engine, bandwidth=BandwidthSpec())
        if bandwidth is not None:
            engine_config.bandwidth = bandwidth
        if engine_config.telemetry is None and self.config.telemetry is not None:
            engine_config.telemetry = self.config.telemetry
        engine = SimEngine(self.kernel, node_id, algorithm, fabric=self, config=engine_config)
        self.engines[node_id] = engine
        if name is not None:
            if name in self.names:
                raise ConfigurationError(f"duplicate node name {name!r}")
            self.names[name] = node_id
            self._labels[node_id] = name
        if self._started:
            engine.start()
        return node_id

    def __getitem__(self, name: str) -> NodeId:
        """Look a node up by its experiment label."""
        try:
            return self.names[name]
        except KeyError:
            raise UnknownNodeError(f"no node named {name!r}") from None

    def engine(self, node: NodeId | str) -> SimEngine:
        node_id = self[node] if isinstance(node, str) else node
        try:
            return self.engines[node_id]
        except KeyError:
            raise UnknownNodeError(f"no node {node_id}") from None

    def label(self, node: NodeId) -> str:
        return self._labels.get(node, str(node))

    def connect(self, src: NodeId | str, dst: NodeId | str) -> None:
        """Open a persistent overlay connection src -> dst (engine-level)."""
        self.engine(src).connect(self[dst] if isinstance(dst, str) else dst)

    # --------------------------------------------------------------- fault verbs
    # The verbs a FailureSchedule replays (repro.sim.failure); schedule
    # times are absolute virtual times.

    def schedule(self, at: float, callback: Callable[..., None], *args) -> None:
        self.kernel.call_at(at, callback, *args)

    def kill_node(self, node: NodeId | str) -> None:
        """Terminate a node abruptly; neighbours detect via socket errors."""
        self.engine(node).terminate()

    def leave_node(self, node: NodeId | str) -> None:
        """Gracefully depart: announce (if the algorithm can), then terminate."""
        engine = self.engine(node)
        if announce_leave(engine.algorithm):
            self.kernel.call_later(LEAVE_GRACE, engine.terminate)
        else:
            engine.terminate()

    def join_node(self, name: str, node_factory: NodeFactory) -> None:
        node_factory(self, name)

    def cut_link(self, src: NodeId | str, dst: NodeId | str) -> None:
        """Break the directed overlay link src -> dst with a loud failure."""
        self._link(src, dst).break_()

    def stall_link(self, src: NodeId | str, dst: NodeId | str) -> None:
        """Silently stall src -> dst: no errors, no traffic.

        Only engines with ``inactivity_timeout`` configured will ever notice.
        """
        self._link(src, dst).stall()

    def kill_source(self, node: NodeId | str, app: int) -> None:
        """Fail an application data source prematurely."""
        self.engine(node).stop_source(app)

    def _link(self, src: NodeId | str, dst: NodeId | str) -> SimLink:
        sender = self.engine(src)._senders.get(self[dst] if isinstance(dst, str) else dst)
        if sender is None:
            raise UnknownNodeError(f"no live link {src} -> {dst}")
        return sender.link

    # --------------------------------------------------------------------- Fabric

    def open_link(self, src: NodeId, dst: NodeId) -> SimLink | None:
        target = self.engines.get(dst)
        if target is None or not target.running:
            return None
        link = SimLink(
            src,
            dst,
            latency=self.latency(src, dst),
            socket_buffer=self.config.socket_buffer,
        )
        target.accept_upstream(link)
        return link

    def to_observer(self, msg: Message) -> None:
        self.kernel.call_later(DEFAULT_OBSERVER_LATENCY, self.observer.on_message, msg)

    def node_terminated(self, node: NodeId) -> None:
        self.observer.mark_down(node)

    # ---------------------------------------------------------- ObserverTransport

    def observer_send(self, node: NodeId, msg: Message) -> None:
        engine = self.engines.get(node)
        if engine is None or not engine.running:
            return
        self.kernel.call_later(DEFAULT_OBSERVER_LATENCY, engine.deliver_control, msg)

    def observer_now(self) -> float:
        return self.kernel.now

    # -------------------------------------------------------------------- running

    def start(self) -> None:
        """Start every engine and the observer's polling loop."""
        if self._started:
            return
        self._started = True
        for engine in self.engines.values():
            engine.start()
        self.kernel.spawn(self._poll_loop(), name="observer/poll")

    async def _poll_loop(self) -> None:
        while True:
            await self.kernel.sleep(self.config.observer_poll_interval)
            self.observer.poll_all()

    def run(self, duration: float, max_events: int | None = None) -> float:
        """Advance the simulation by ``duration`` virtual seconds."""
        if not self._started:
            self.start()
        return self.kernel.run(until=self.kernel.now + duration, max_events=max_events)

    @property
    def now(self) -> float:
        return self.kernel.now

    @property
    def telemetry(self) -> Telemetry | None:
        """The cluster-wide telemetry unit, when enabled."""
        return self.config.telemetry

    # --------------------------------------------------------------- measurements

    def link_rate(self, src: NodeId | str, dst: NodeId | str) -> float:
        """Measured outgoing throughput on the overlay link src -> dst (B/s)."""
        dst_id = self[dst] if isinstance(dst, str) else dst
        return self.engine(src).send_rate(dst_id)

    def rates_snapshot(self) -> dict[tuple[str, str], float]:
        """All live link rates, keyed by (label(src), label(dst))."""
        snapshot: dict[tuple[str, str], float] = {}
        for node, engine in self.engines.items():
            if not engine.running:
                continue
            for dest in engine.downstreams():
                snapshot[(self.label(node), self.label(dest))] = engine.send_rate(dest)
        return snapshot
