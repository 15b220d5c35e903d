"""Backend drivers for the shared engine-semantics suite.

Both drivers expose the same synchronous facade so one body of tests
exercises :class:`~repro.core.engine_core.EngineCore` semantics through
both backends:

* :class:`SimCluster` — engines under the discrete-event kernel;
  ``settle`` advances virtual time (instant in wall-clock terms).
* :class:`NetCluster` — real :class:`AsyncioEngine` instances packed on
  a :class:`~repro.net.virtual.VirtualHost` (zero-copy loopback links,
  no sockets for co-hosted pairs); ``settle`` runs the event loop for
  that many wall-clock seconds.

Tests receive engine objects and talk to the shared EngineCore API
(``start_source``, ``disconnect``, ``measure``, ``_status_report`` ...)
— anything used here must exist identically on both backends.
"""

from __future__ import annotations

import asyncio

from repro.core.bandwidth import BandwidthSpec
from repro.net.engine import NetEngineConfig
from repro.net.virtual import VirtualHost
from repro.errors import SimulationError
from repro.sim.engine import EngineConfig
from repro.sim.network import NetworkConfig, SimNetwork

#: short enough that the net leg stays fast, long enough for reports
REPORT_INTERVAL = 0.2


class SimCluster:
    """Shared-suite driver over the simulation backend."""

    backend = "sim"

    def __init__(self, seed: int = 0, telemetry=None) -> None:
        self.net = SimNetwork(NetworkConfig(seed=seed))
        self.telemetry = telemetry
        self._engines = []

    def add_node(self, algorithm, up: float | None = None, down: float | None = None,
                 capacity: int = 64):
        """Add a node; ``up``/``down`` cap its links in bytes/second and
        ``capacity`` is its per-buffer size in messages."""
        node_id = self.net.add_node(algorithm, config=EngineConfig(
            buffer_capacity=capacity, report_interval=REPORT_INTERVAL,
            bandwidth=BandwidthSpec(up=up, down=down), telemetry=self.telemetry,
        ))
        engine = self.net.engine(node_id)
        self._engines.append(engine)
        return engine

    def start(self) -> None:
        self.net.start()

    def connect(self, src, dst) -> None:
        assert src.connect(dst.node_id)

    def settle(self, seconds: float) -> None:
        """Advance time until the cluster has processed its backlog."""
        self.net.run(seconds)

    def settle_through_crash(self, seconds: float) -> list[SimulationError]:
        """``settle`` across an engine whose Algorithm hook raised.

        The kernel reports such a crash once, by raising from ``run``;
        this settles on past it and returns what was raised.
        """
        try:
            self.net.run(seconds)
        except SimulationError as exc:
            self.net.run(seconds)
            return [exc]
        return []

    def kill(self, engine) -> None:
        """Crash one node; peers observe BROKEN_LINK on their next send."""
        engine.terminate()

    def add_late_node(self, algorithm):
        """Add (and start) a node while the cluster is already running."""
        return self.add_node(algorithm)

    def close(self) -> None:
        for engine in self._engines:
            if engine.running:
                engine.terminate()

    def leaked_tasks(self) -> list[str]:
        """Shut everything down; names of engine tasks still alive after."""
        self.close()
        self.net.run(0.01)  # cancellations land at the tasks' next step
        return [t.name for t in self.net.kernel.live_tasks if t.name != "observer/poll"]


class NetCluster:
    """Shared-suite driver over the asyncio backend (virtual-hosted)."""

    backend = "net"

    def __init__(self, seed: int = 0, telemetry=None) -> None:
        del seed  # wall-clock scheduling: nothing here draws random numbers
        self.loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self.loop)
        self.host = VirtualHost()
        self.telemetry = telemetry
        self._started = False

    def add_node(self, algorithm, up: float | None = None, down: float | None = None,
                 capacity: int = 64):
        """Add a node; ``up``/``down`` cap its links in bytes/second and
        ``capacity`` is its per-buffer size in messages."""
        return self.host.add_node(algorithm, config=NetEngineConfig(
            buffer_capacity=capacity, report_interval=REPORT_INTERVAL,
            bandwidth=BandwidthSpec(up=up, down=down), telemetry=self.telemetry,
        ))

    def start(self) -> None:
        self.loop.run_until_complete(self.host.start())
        self._started = True

    def connect(self, src, dst) -> None:
        assert self.loop.run_until_complete(src.connect(dst.node_id))

    def settle(self, seconds: float) -> None:
        self.loop.run_until_complete(asyncio.sleep(seconds))

    def settle_through_crash(self, seconds: float) -> list:
        """``settle``: the event loop reports nothing when an engine's
        Algorithm hook raises (telemetry and the links do)."""
        self.settle(seconds)
        return []

    def kill(self, engine) -> None:
        """Take one node down mid-run; its links tear and peers see
        BROKEN_LINK, the same signal a process crash produces."""
        self.loop.run_until_complete(self.host.stop_node(engine.node_id))

    def add_late_node(self, algorithm):
        """Add (and start) a node while the cluster is already running."""
        engine = self.add_node(algorithm)
        self.loop.run_until_complete(self.host.start_node(engine))
        return engine

    def close(self) -> None:
        if self.loop.is_closed():
            return
        try:
            if self._started:
                self.loop.run_until_complete(self.host.stop())
        finally:
            self.loop.close()
            asyncio.set_event_loop(None)

    def leaked_tasks(self) -> list[str]:
        """Shut everything down; names of tasks still alive after."""
        self.loop.run_until_complete(self.host.stop())
        self._started = False
        self.loop.run_until_complete(asyncio.sleep(0))
        return [task.get_name() for task in asyncio.all_tasks(self.loop)]
