"""The six workloads: how each is built, driven, read and torn down.

All load is generated inside the system under test by the overlay's own
source node (``paced_chain``: by one bench coroutine on an absolute
schedule).  All traffic crosses the host loopback interface or shared
memory, never a real link.  ``cluster_pack`` is the only workload with
more than one process: a controller plus two workers, because the box
has two cores.

A live workload exposes the same five steps to :func:`run_live`:
``launch`` (build, wire, start the source), ``first_at`` (when the sink
verified its first message), ``read`` (CPU, delivered count and, when
traced, layer counters — taken at both ends of the window), ``finish``
(close the source, drain, collect the sinks' ledgers) and ``teardown``
(source first, then sink to source, so no engine writes into a closed
socket).
"""

from __future__ import annotations

import asyncio
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.cluster.controller import ClusterConfig, ClusterController
from repro.cluster.spec import NodeSpec, ref
from repro.core.ids import NodeId
from repro.core.message import Message
from repro.core.msgtypes import MsgType
from repro.net.engine import AsyncioEngine, NetEngineConfig
from repro.net.observer_server import ObserverServer
from repro.net.virtual import VirtualHost
from repro.sim.engine import EngineConfig
from repro.sim.network import NetworkConfig, SimNetwork
from repro.telemetry import Telemetry

from bench import algos, trace
from bench.algos import APP, CLOSE_CONTROL
from bench.measure import Calibrator, proc_cpu_seconds, proc_peak_rss_mib

REPO_ROOT = Path(__file__).resolve().parents[1]

#: fresh instances per run: each is set up, measured for its share of
#: the window and drained; ``setup_s`` is the median of their set-ups
INSTANCES = 3

#: seconds a closed source may take to drain before the run is failed
DRAIN_TIMEOUT = 10.0

#: simulated seconds over which ``sim_chain`` counts events exactly
SIM_EXACT_FROM, SIM_EXACT_TO = 1.0, 3.0


@dataclass
class Reading:
    """The system's counters at one instant (a window has two)."""

    at: float
    cpu: float
    delivered: int
    trace: dict | None = None
    totals: dict | None = None
    observer_bytes: int = 0
    observer_frames: int = 0
    worker_cpu: list[float] = field(default_factory=list)


class WorkloadFailure(Exception):
    """The system under test broke in a way that fails every operation."""


async def sleep_until(deadline: float) -> None:
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return
        await asyncio.sleep(remaining)


def _live_engine_loops() -> int:
    """Engine loops still running on this event loop.

    An exception inside an algorithm hook kills the engine loop task
    without a log line and the run would just deliver nothing, so the
    window polls this.
    """
    return sum(
        1 for task in asyncio.all_tasks()
        if getattr(task.get_coro(), "__qualname__", "") == "EngineCore._engine_loop"
    )


class _DepthSampler:
    """10 Hz mean of receive/send queue depths (traced runs only)."""

    def __init__(self) -> None:
        self.recv_sum = self.send_sum = 0.0
        self.recv_n = self.send_n = 0

    def add(self, recv: list[int], send: list[int]) -> None:
        self.recv_sum += sum(recv)
        self.recv_n += len(recv)
        self.send_sum += sum(send)
        self.send_n += len(send)

    def means(self) -> tuple[float, float]:
        return (self.recv_sum / self.recv_n if self.recv_n else 0.0,
                self.send_sum / self.send_n if self.send_n else 0.0)


# ------------------------------------------------------------ in-process chains


class _InProcess:
    """Shared steps of the workloads whose engines all live in this process."""

    name = ""
    hops = 0.0
    payload_size = 5000
    buffer_capacity = 10
    fill_s = 2.0
    late_ms = 0.0
    check_every = 8
    #: delivered messages after which ``peak_rss_mb`` is read (about
    #: three quarters of what the fill delivers)
    rss_after = 8000

    def __init__(self, seed: int, traced: bool) -> None:
        self.seed = seed
        self.traced = traced
        self.telemetry: Telemetry | None = None
        self.engines: list[AsyncioEngine] = []
        self.source: Any = None
        self.sinks: list[Any] = []
        self.extras: dict[str, float] = {}
        self.depths = _DepthSampler()

    def _config(self) -> NetEngineConfig:
        return NetEngineConfig(buffer_capacity=self.buffer_capacity, telemetry=self.telemetry)

    async def launch(self) -> None:
        self.telemetry = Telemetry() if self.traced else None
        await self._build()
        self._start_source()

    async def _build(self) -> None:
        raise NotImplementedError

    def _start_source(self) -> None:
        self.engines[0].start_source(APP, self.payload_size)

    def first_at(self) -> float:
        """When the last sink verified its first message (0.0 until all have)."""
        firsts = [sink.first_at for sink in self.sinks]
        return max(firsts) if all(firsts) else 0.0

    async def wait_first(self, timeout: float = 30.0) -> float:
        deadline = time.monotonic() + timeout
        while not self.first_at():
            if time.monotonic() > deadline:
                raise WorkloadFailure(f"{self.name}: no message reached the sink in {timeout}s")
            await asyncio.sleep(0.002)
        return self.first_at()

    def delivered(self) -> int:
        return min(sink.received for sink in self.sinks)

    async def poll_delivered(self) -> int:
        return self.delivered()

    async def read(self, layers: bool = False) -> Reading:
        reading = Reading(time.monotonic(), time.process_time(), self.delivered())
        if layers:
            reading.trace = trace.REC.snapshot()
            reading.totals = trace.engine_totals(self.telemetry.snapshot())
        return reading

    def check_alive(self) -> None:
        dead = [str(e.node_id) for e in self.engines if not e.running]
        loops = _live_engine_loops()
        if dead or loops != len(self.engines):
            raise WorkloadFailure(
                f"{self.name}: engines stopped {dead}, {loops}/{len(self.engines)} loops alive")

    def sample_depths(self) -> None:
        for engine in self.engines:
            snap = engine.queue_snapshot()
            self.depths.add([d for d, _ in snap["recv"].values()], list(snap["send"].values()))

    def peak_rss_mib(self) -> float:
        return proc_peak_rss_mib()

    async def finish(self) -> dict:
        """Close the source, drain, and hand back the ledgers."""
        await self._close_source()
        deadline = time.monotonic() + DRAIN_TIMEOUT
        while self.delivered() < self.source.emitted and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        self.check_alive()
        return {
            "emitted": self.source.emitted,
            "sinks": [sink.report(full=True) for sink in self.sinks],
        }

    async def _close_source(self) -> None:
        self.source.close()

    async def teardown(self) -> None:
        if self.engines:
            self.engines[0].stop_source(APP)
        for engine in reversed(self.engines):
            await engine.stop()
        self.engines = []

    async def _start_tcp_engines(self, algorithms: list[Any]) -> None:
        self.engines = [
            AsyncioEngine(NodeId("127.0.0.1", 0), algorithm, config=self._config())
            for algorithm in algorithms
        ]
        for engine in self.engines:
            await engine.start()

    async def _connect(self, links: list[tuple[AsyncioEngine, AsyncioEngine]]) -> None:
        start = time.perf_counter()
        for left, right in links:
            if not await left.connect(right.node_id):
                raise WorkloadFailure(f"{self.name}: dial {left.node_id} -> {right.node_id} failed")
        self.extras["connect_s"] = time.perf_counter() - start


class TcpChain(_InProcess):
    """8 engines over real loopback TCP, saturating source (paper Fig. 5)."""

    name = "tcp_chain"
    nodes = 8
    hops = 7.0

    async def _build(self) -> None:
        self.source = algos.StampSource(seed=self.seed)
        relays = [algos.Relay() for _ in range(self.nodes - 2)]
        sink = algos.StampSink(check_every=self.check_every, late_ms=self.late_ms)
        self.sinks = [sink]
        chain = [self.source, *relays, sink]
        await self._start_tcp_engines(chain)
        for algorithm, nxt in zip(chain, self.engines[1:]):
            algorithm.set_downstreams([nxt.node_id])
        await self._connect(list(zip(self.engines, self.engines[1:])))


class PacedChain(TcpChain):
    """The same chain under an open loop: 250 msg/s on an absolute schedule.

    Unbatched, a message-hop costs three to five times what it costs under
    saturation (~125 us here), so 250 msg/s keeps one core about a
    quarter busy - and still under half busy in the box's slow phases,
    when everything costs twice as much.  Closer to the knee (500 msg/s
    was tried) the slow phases build queues and the p95 of identical
    code moved by 3x between runs.  A message later than
    ``late_ms`` counts as failed; the limit sits above those stalls so
    that only a backlog (an unsustainable rate) trips it.
    """

    name = "paced_chain"
    rate = 250.0
    fill_s = 1.0
    late_ms = 200.0
    check_every = 1
    rss_after = 200

    def __init__(self, seed: int, traced: bool) -> None:
        super().__init__(seed, traced)
        self.lags: list[float] = []
        self._generator: asyncio.Task | None = None

    def _start_source(self) -> None:
        self._generator = asyncio.ensure_future(self._generate())

    async def _generate(self) -> None:
        """Emit message ``i`` at ``t0 + i / rate``, stamped with that due time.

        A late wake-up emits every message that is due, each with its own
        due time, so a stall shows as latency of the messages it delayed
        and as generator lag, never as a lower offered rate.
        """
        source, sender = self.source, self.engines[0].node_id
        bodies = algos.make_bodies(self.seed, self.payload_size)
        period = 1.0 / self.rate
        t0 = time.monotonic() + 0.01
        seq = 0
        while not source.closed:
            now = time.monotonic()
            due = t0 + seq * period
            if now < due:
                await asyncio.sleep(due - now)
                continue
            while due <= now:
                body, crc = bodies[seq % algos.BODY_POOL]
                payload = algos.build_payload(due, seq, body, crc)
                source.inject(Message(MsgType.DATA, sender, APP, payload, seq=seq))
                self.lags.append(now - due)
                seq += 1
                due = t0 + seq * period

    async def _close_source(self) -> None:
        self.source.close()
        if self._generator is not None:
            await self._generator
            self._generator = None

    async def teardown(self) -> None:
        if self._generator is not None:
            self._generator.cancel()
            self._generator = None
        await super().teardown()


class VirtualPack(_InProcess):
    """40 engines on one VirtualHost: zero-copy loopback links, 64-B payloads."""

    name = "virtual_pack"
    nodes = 40
    hops = 39.0
    payload_size = 64
    rss_after = 3000

    async def _build(self) -> None:
        self.host = VirtualHost()
        self.source = algos.StampSource(seed=self.seed)
        relays = [algos.Relay() for _ in range(self.nodes - 2)]
        sink = algos.StampSink(check_every=self.check_every)
        self.sinks = [sink]
        chain = [self.source, *relays, sink]
        self.engines = [self.host.add_node(alg, config=self._config()) for alg in chain]
        await self.host.start()
        for algorithm, nxt in zip(chain, self.engines[1:]):
            algorithm.set_downstreams([nxt.node_id])
        await self._connect(list(zip(self.engines, self.engines[1:])))
        self.extras["loopback_dials"] = self.host.resolver.dials

    async def teardown(self) -> None:
        for engine in self.engines:
            self.host.resolver.unregister(engine.node_id)
        await super().teardown()


class CodedButterfly(_InProcess):
    """The Fig. 8 butterfly over loopback TCP, k=2, saturating coded source.

    Per generation of two originals nine frames cross a link (A-B, A-C,
    B-D, B-F, C-D, C-G, D-E, E-F, E-G), so one delivered original costs
    4.5 message-hops.
    """

    name = "coded_butterfly"
    hops = 4.5
    fill_s = 2.0
    rss_after = 6000

    async def _build(self) -> None:
        a = self.source = algos.StampCodedSource(seed=self.seed)
        b, c, e = algos.Relay(), algos.Relay(), algos.Relay()
        d = algos.CodingRelay(k=2)
        f = algos.StampDecodingSink(k=2, check_every=self.check_every)
        g = algos.StampDecodingSink(k=2, check_every=self.check_every)
        self.sinks = [f, g]
        await self._start_tcp_engines([a, b, c, d, e, f, g])
        ea, eb, ec, ed, ee, ef, eg = self.engines
        wiring = {ea: [eb, ec], eb: [ed, ef], ec: [ed, eg], ed: [ee], ee: [ef, eg]}
        for engine, downstreams in wiring.items():
            engine.algorithm.set_downstreams([down.node_id for down in downstreams])
        await self._connect([(up, down) for up, downs in wiring.items() for down in downs])


# ---------------------------------------------------------------- cluster_pack


class ClusterPack:
    """16-node chain round-robin over 2 workers: every hop crosses a process."""

    name = "cluster_pack"
    nodes = 16
    hops = 15.0
    payload_size = 5000
    fill_s = 2.0
    workers = 2
    rss_after = 8000

    def __init__(self, seed: int, traced: bool) -> None:
        self.seed = seed
        self.traced = traced
        self.extras: dict[str, float] = {}
        self.depths = _DepthSampler()
        self.observer: ObserverServer | None = None
        self.controller: ClusterController | None = None
        self.sink_name = f"n{self.nodes - 1}"
        self._per_worker: list[str] = []

    def _specs(self) -> list[NodeSpec]:
        last = self.nodes - 1
        specs = [NodeSpec(f"n{last}", "bench.algos:StampSink", {"check_every": 8})]
        for i in range(last - 1, 0, -1):
            specs.append(NodeSpec(f"n{i}", "bench.algos:Relay", {"downstreams": [ref(f"n{i + 1}")]}))
        specs.append(NodeSpec(
            "n0", "bench.algos:StampSource",
            {"downstreams": [ref("n1")], "seed": self.seed}, weight=2.0,
        ))
        return specs

    async def launch(self) -> None:
        # Workers import bench.algos: the repo root joins their PYTHONPATH
        # (the supervisor prepends src/ itself), and the trace switch
        # rides the same environment.
        paths = [str(REPO_ROOT)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        os.environ["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(paths))
        os.environ[trace.ENV_SWITCH] = "1" if self.traced else "0"

        self.observer = ObserverServer(NodeId("127.0.0.1", 0), poll_interval=1.0)
        await self.observer.start()
        self.controller = ClusterController(self.observer, ClusterConfig(
            workers=self.workers, worker_telemetry=self.traced,
        ))
        start = time.perf_counter()
        await self.controller.start()
        self.extras["spawn_s"] = time.perf_counter() - start
        start = time.perf_counter()
        placed = await self.controller.deploy(self._specs())
        alive = self.observer.observer.alive
        deadline = time.monotonic() + 30.0
        while not all(p.node_id in alive for p in placed.values()):
            if time.monotonic() > deadline:
                raise WorkloadFailure("cluster_pack: nodes never registered at the observer")
            await asyncio.sleep(0.005)
        self.extras["deploy_s"] = time.perf_counter() - start
        by_worker: dict[str, str] = {}
        for name, node in placed.items():
            by_worker.setdefault(node.worker, name)
        self._per_worker = list(by_worker.values())
        self.controller.deploy_source("n0", APP, self.payload_size)

    async def _info(self, name: str) -> dict:
        reply = await self.controller.node_info(name)
        if "error" in reply:
            raise WorkloadFailure(f"cluster_pack: node_info({name}): {reply['error']}")
        return reply

    async def wait_first(self, timeout: float = 30.0) -> float:
        deadline = time.monotonic() + timeout
        while True:
            first = (await self._info(self.sink_name))["info"].get("first_at", 0.0)
            if first:
                return first
            if time.monotonic() > deadline:
                raise WorkloadFailure(f"cluster_pack: no message reached the sink in {timeout}s")
            await asyncio.sleep(0.02)

    async def poll_delivered(self) -> int:
        return (await self._info(self.sink_name))["info"]["received"]

    def _worker_pids(self) -> list[int]:
        return [state.pid for state in self.controller.workers.values()]

    async def read(self, layers: bool = False) -> Reading:
        sink = (await self._info(self.sink_name))["info"]
        worker_cpu = [proc_cpu_seconds(pid) for pid in self._worker_pids()]
        reading = Reading(
            time.monotonic(), time.process_time() + sum(worker_cpu), sink["received"],
            observer_bytes=self.observer.bytes_in, observer_frames=self.observer.frames_in,
            worker_cpu=worker_cpu,
        )
        if layers:
            parts, totals = [trace.REC.snapshot()], []
            for name in self._per_worker:
                info = sink if name == self.sink_name else (await self._info(name))["info"]
                parts.append(info["trace"])
                totals.append(info["totals"])
            reading.trace = trace.merge(parts)
            reading.totals = trace.totals_merge(totals)
        return reading

    def check_alive(self) -> None:
        dead = [w.name for w in self.controller.workers.values() if not w.alive]
        if dead or self.controller.worker_deaths:
            raise WorkloadFailure(f"cluster_pack: workers died: {dead}")

    def sample_depths(self) -> None:
        for status in self.observer.observer.statuses.values():
            self.depths.add(list(status.recv_buffers.values()), list(status.send_buffers.values()))

    def peak_rss_mib(self) -> float:
        return proc_peak_rss_mib() + sum(proc_peak_rss_mib(pid) for pid in self._worker_pids())

    async def finish(self) -> dict:
        controller = self.controller
        controller.send_control("n0", CLOSE_CONTROL, app=APP)
        deadline = time.monotonic() + DRAIN_TIMEOUT
        emitted, stable = -1, 0
        while time.monotonic() < deadline:
            now_emitted = (await self._info("n0"))["info"]["emitted"]
            received = (await self._info(self.sink_name))["info"]["received"]
            stable = stable + 1 if now_emitted == emitted else 0
            emitted = now_emitted
            if stable >= 2 and received >= emitted:
                break
            await asyncio.sleep(0.05)
        self.check_alive()
        # every hop must have used the rings: a TCP fallback anywhere is
        # a different workload
        transports: dict[str, int] = {}
        for i in range(self.nodes):
            reply = await self._info(f"n{i}")
            if not reply["running"]:
                raise WorkloadFailure(f"cluster_pack: n{i} stopped running")
            for kind, count in reply["transports"].items():
                transports[kind] = transports.get(kind, 0) + count
        self.extras["tcp_fallbacks"] = transports.get("tcp", 0)
        self.extras["transport_is_shm"] = float(set(transports) == {"shm"})
        controller.send_control(self.sink_name, CLOSE_CONTROL, app=APP)
        for _ in range(200):
            info = (await self._info(self.sink_name))["info"]
            if "slices" in info:
                break
            await asyncio.sleep(0.02)
        else:
            raise WorkloadFailure("cluster_pack: the sink never returned its ledger")
        # JSON turned the ledger's integer second keys into strings
        info["slices"] = {int(sec): entry for sec, entry in info["slices"].items()}
        return {"emitted": emitted, "sinks": [info]}

    async def teardown(self) -> None:
        if self.controller is not None:
            await self.controller.stop()
            self.controller = None
        if self.observer is not None:
            await self.observer.stop()
            self.observer = None


# ----------------------------------------------------------------- live driver


async def _calibrate(calibrator: Calibrator) -> None:
    while True:
        await asyncio.sleep(0.02)
        calibrator.sample()


async def _rss_after_fixed_work(workload: Any, timeout: float = 30.0) -> float:
    """Peak resident set once the sink holds ``rss_after`` messages.

    Read at a fixed amount of work, not at a fixed time: memory that
    grows with the messages handled (ledgers, ``DecodingSinkAlgorithm``'s
    set of completed generations, whose table quadruples at fixed
    counts) would otherwise make the peak a step function of how fast
    the machine happened to run.  Polled only while the pipeline fills,
    so the measured window pays nothing for it.
    """
    deadline = time.monotonic() + timeout
    while await workload.poll_delivered() < workload.rss_after:
        if time.monotonic() > deadline:
            raise WorkloadFailure(
                f"{workload.name}: fewer than {workload.rss_after} messages in {timeout}s")
        await asyncio.sleep(0.01)
    return workload.peak_rss_mib()


async def _measure_live(workload: Any, seconds: int, calibrator: Calibrator) -> dict:
    """One instance: set up, fill, measure ``seconds`` slices, drain, stop."""
    start = time.monotonic()
    try:
        await workload.launch()
        first_at = await workload.wait_first()
        rss = await _rss_after_fixed_work(workload)
        await sleep_until(first_at + workload.fill_s)
        first = int(time.monotonic()) + 1
        await sleep_until(first)
        if workload.traced:
            trace.REC.drop_spans()
        ticks = [await workload.read(layers=workload.traced)]
        for second in range(1, seconds + 1):
            # queue depths at 10 Hz when traced; liveness and a light
            # reading (CPU, delivered) at every slice boundary
            if workload.traced:
                for tenth in range(1, 10):
                    await sleep_until(first + second - 1 + tenth / 10)
                    workload.sample_depths()
            await sleep_until(first + second)
            workload.check_alive()
            ticks.append(await workload.read(layers=workload.traced and second == seconds))
        rss_end = workload.peak_rss_mib()
        ledger = await workload.finish()
    finally:
        await workload.teardown()
    return {
        "setup_time": first_at - start,
        "setup_slowdown": calibrator.slowdown_between(start, first_at + 0.05),
        "first": first, "last": first + seconds - 1,
        "ticks": ticks, "slowdown": calibrator.per_second(first, first + seconds - 1),
        "rss_mib": rss, "rss_end_mib": rss_end,
        "emitted": ledger["emitted"], "sinks": ledger["sinks"],
        "extras": dict(workload.extras), "depths": workload.depths.means(),
        "gen_lags": sorted(getattr(workload, "lags", [])),
    }


async def run_live(factory: Any, windows: list[int], warm_up: bool) -> list[dict]:
    """Measure one fresh instance per window, after an unmeasured warm-up."""
    calibrator = Calibrator()
    calibrating = asyncio.ensure_future(_calibrate(calibrator))
    try:
        if warm_up:
            # the first build in a process runs slower than later ones
            # (cold allocator and caches): nobody pays that on every run
            warm = factory()
            try:
                await warm.launch()
                await warm.wait_first()
                await asyncio.sleep(0.3)
                await warm.finish()
            finally:
                await warm.teardown()
        return [await _measure_live(factory(), seconds, calibrator) for seconds in windows]
    finally:
        calibrating.cancel()


# ------------------------------------------------------------------- sim_chain


class SimChain:
    """8-node chain on the discrete-event simulator; wall time is the measurement.

    The simulation is deterministic: for one seed the delivered count
    and the kernel's event counts over a fixed simulated interval are
    identical on every run, which every set-up of a run re-checks.
    """

    name = "sim_chain"
    nodes = 8
    hops = 7.0
    payload_size = 5000
    step = 0.25  # simulated seconds between wall-clock checks

    def __init__(self, seed: int, traced: bool) -> None:
        self.seed = seed
        self.traced = traced
        self.telemetry: Telemetry | None = None

    def launch(self) -> None:
        self.telemetry = Telemetry() if self.traced else None
        self.net = SimNetwork(NetworkConfig(
            engine=EngineConfig(buffer_capacity=10), seed=self.seed, telemetry=self.telemetry,
        ))
        self.source = algos.StampSource(seed=self.seed)
        relays = [algos.Relay() for _ in range(self.nodes - 2)]
        self.sink = algos.StampSink(check_every=8)
        chain = [self.source, *relays, self.sink]
        ids = [self.net.add_node(alg, name=f"n{i}") for i, alg in enumerate(chain)]
        for algorithm, nxt in zip(chain, ids[1:]):
            algorithm.set_downstreams([nxt])
        self.net.start()
        self.net.observer.deploy_source(ids[0], app=APP, payload_size=self.payload_size)

    def run_to_first(self) -> float:
        while not self.sink.first_at:
            if self.net.now > 5.0:
                raise WorkloadFailure("sim_chain: nothing delivered in 5 simulated seconds")
            self.net.run(0.005)
        return self.sink.first_at

    def _timers(self) -> int:
        return trace.REC.counts["sim.kernel.timers"] if self.traced else 0

    def exact_counts(self) -> dict:
        """Delivered messages and kernel events over a fixed simulated interval."""
        kernel = self.net.kernel
        self.net.run(SIM_EXACT_FROM - self.net.now)
        base = (self.sink.received, kernel._sequence, self._timers())
        self.net.run(SIM_EXACT_TO - self.net.now)
        return {
            "delivered": self.sink.received - base[0],
            "events": kernel._sequence - base[1],
            "timers": self._timers() - base[2],
        }

    def read(self, layers: bool = False) -> Reading:
        reading = Reading(time.monotonic(), time.process_time(), self.sink.received)
        if layers:
            reading.trace = trace.REC.snapshot()
            reading.totals = trace.engine_totals(self.telemetry.snapshot())
        return reading


def _measure_sim(workload: SimChain, seconds: int, calibrator: Calibrator) -> dict:
    for _ in range(5):
        calibrator.sample()
    start = time.monotonic()
    workload.launch()
    first_at = workload.run_to_first()
    for _ in range(5):
        calibrator.sample()
    setup_slowdown = calibrator.slowdown_between(start - 0.05, time.monotonic())
    exact = workload.exact_counts()
    # fixed work so far (SIM_EXACT_TO simulated seconds): memory is read
    # here for the reason _rss_after_fixed_work gives
    rss = proc_peak_rss_mib()
    net, sink = workload.net, workload.sink

    def run_until(deadline: float) -> None:
        while time.monotonic() < deadline:
            net.run(workload.step)
            calibrator.sample()

    first = int(time.monotonic()) + 1
    run_until(first)
    if workload.traced:
        trace.REC.drop_spans()
    ticks = [workload.read(layers=workload.traced)]
    for second in range(1, seconds + 1):
        run_until(first + second)
        ticks.append(workload.read(layers=workload.traced and second == seconds))
    rss_end = proc_peak_rss_mib()
    workload.source.close()
    net.run(2.0)
    return {
        "setup_time": first_at - start, "setup_slowdown": setup_slowdown,
        "first": first, "last": first + seconds - 1,
        "ticks": ticks, "slowdown": calibrator.per_second(first, first + seconds - 1),
        "rss_mib": rss, "rss_end_mib": rss_end, "emitted": workload.source.emitted,
        "sinks": [sink.report(full=True)],
        "extras": {}, "depths": (0.0, 0.0), "gen_lags": [], "exact": exact,
    }


WORKLOADS = {
    cls.name: cls
    for cls in (TcpChain, PacedChain, VirtualPack, ClusterPack, CodedButterfly, SimChain)
}


def split_window(seconds: int, instances: int = INSTANCES) -> list[int]:
    """``seconds`` of measurement shared out over up to ``instances`` windows."""
    instances = max(1, min(instances, seconds))
    base, extra = divmod(seconds, instances)
    return [base + (1 if i < extra else 0) for i in range(instances)]


def run(name: str, seed: int, windows: list[int], traced: bool) -> dict:
    """Run one workload in this process; one fresh instance per window.

    A run's slices come from several instances because an instance
    settles into its own pace (task phase, buffer placement) and keeps
    it: three short windows sample three paces, one long window one.
    Every instance also yields one ``setup_s`` sample and is drained and
    checked for conservation on its own.
    """
    cls = WORKLOADS[name]

    def factory() -> Any:
        return cls(seed, traced)

    if cls is SimChain:
        calibrator = Calibrator()
        instances = [_measure_sim(factory(), seconds, calibrator) for seconds in windows]
    else:
        instances = asyncio.run(run_live(factory, windows, warm_up=cls is not ClusterPack))
    return {"workload": name, "hops": cls.hops, "instances": instances,
            "fresh_workers": cls is ClusterPack}
