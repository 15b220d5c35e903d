"""Cluster scale-out — worker fleets vs one single-process VirtualHost.

:mod:`repro.experiments.fig_virtual_scaling` showed how many nodes pack
into ONE process; this experiment measures the layer above it.  The
workload is a fixed set of independent fig5-style forwarding chains
(held constant across every point so only the process topology varies)
driven by back-to-back saturating sources.  The baseline runs all
chains in one :class:`~repro.net.virtual.VirtualHost`; the cluster
points shard the *same* chains across 1, 2 and 4 worker processes with
each chain pinned wholly to one worker, so every chain hop keeps the
zero-copy loopback fast path and the fleet differs from the baseline
only in how many OS processes share the work.

For each point we record aggregate end-to-end throughput (the sum of
sink deltas over a measured window), per-node startup cost (spawn +
deploy, which for the cluster includes subprocess boot and the
observer round-trips), and the worker fan-out.  The sources are
CPU-bound, so the fleet's headroom over the single process is the
machine's core count: on a multi-core host the 4-worker point exceeds
the baseline; on a single-core host the experiment degenerates to
parity-minus-overhead and says so in its output.
"""

from __future__ import annotations

import asyncio
import os
import time
from dataclasses import dataclass

from repro.cluster.controller import ClusterConfig, ClusterController
from repro.cluster.scenarios import build_local, chain_specs, require_alive
from repro.cluster.spec import NodeSpec
from repro.core.ids import NodeId
from repro.experiments.common import Table
from repro.net.observer_server import ObserverServer

#: independent chains in the workload (fixed so every point is the
#: same topology); worker counts swept over them
DEFAULT_CHAINS = 4
DEFAULT_WORKERS = [1, 2, 4]
DEFAULT_NODES = 48  # total, i.e. 4 chains x 12 nodes
PAYLOAD = 2000


@dataclass
class ScalePoint:
    label: str  # "single-process" or "N workers"
    workers: int  # 0 for the in-process baseline
    nodes: int
    aggregate: float  # B/s summed over every chain's sink
    startup_ms_per_node: float


@dataclass
class ClusterScalingResult:
    points: list[ScalePoint]  # points[0] is the single-process baseline
    cpus: int

    @property
    def baseline(self) -> ScalePoint:
        return self.points[0]

    def speedup(self, point: ScalePoint) -> float:
        return point.aggregate / self.baseline.aggregate if self.baseline.aggregate else 0.0

    def best_cluster_speedup(self) -> float:
        return max((self.speedup(p) for p in self.points[1:]), default=0.0)

    def table(self) -> Table:
        table = Table(
            "Cluster scale-out — pinned chains across worker processes",
            ["configuration", "nodes", "aggregate (KB/s)",
             "vs single-process", "startup (ms/node)"],
        )
        for p in self.points:
            table.add_row(
                p.label, p.nodes, f"{p.aggregate / 1000:.1f}",
                f"{self.speedup(p):.2f}x", f"{p.startup_ms_per_node:.1f}",
            )
        table.note("every chain is pinned to one worker, so all chain hops "
                   "stay on the zero-copy loopback path in both runs")
        table.note(f"sources are CPU-bound; this host has {self.cpus} "
                   f"usable core(s), which caps the fleet's speedup")
        return table


def _sharded_chain_specs(chains: int, chain_len: int, workers: int) -> list[NodeSpec]:
    """``chains`` independent chains, chain ``i`` pinned to worker ``i % workers``."""
    specs: list[NodeSpec] = []
    for i in range(chains):
        for spec in chain_specs(chain_len, prefix=f"c{i}n"):
            spec.pin = f"w{i % workers}"
            specs.append(spec)
    return specs


async def _run_baseline(chains: int, chain_len: int, duration: float,
                        warmup: float) -> ScalePoint:
    specs = _sharded_chain_specs(chains, chain_len, workers=1)
    nodes = len(specs)
    t0 = time.monotonic()
    host = await build_local(specs)
    startup = time.monotonic() - t0
    sinks = [host.engine(f"c{i}n{chain_len - 1}").algorithm for i in range(chains)]
    for i in range(chains):
        host.engine(f"c{i}n0").start_source(app=i + 1, payload_size=PAYLOAD)
    await asyncio.sleep(warmup)
    before = sum(sink.received for sink in sinks)
    await asyncio.sleep(duration)
    delivered = sum(sink.received for sink in sinks) - before
    for i in range(chains):
        host.engine(f"c{i}n0").stop_source(i + 1)
    await host.stop()
    return ScalePoint(
        label="single-process", workers=0, nodes=nodes,
        aggregate=delivered * PAYLOAD / duration,
        startup_ms_per_node=startup * 1000.0 / nodes,
    )


async def _run_fleet(workers: int, chains: int, chain_len: int,
                     duration: float, warmup: float) -> ScalePoint:
    observer = ObserverServer(NodeId("127.0.0.1", 0), poll_interval=0.5)
    await observer.start()
    controller = ClusterController(observer, ClusterConfig(workers=workers))
    specs = _sharded_chain_specs(chains, chain_len, workers)
    nodes = len(specs)
    t0 = time.monotonic()
    try:
        await controller.start()
        placed = await controller.deploy(specs)
        startup = time.monotonic() - t0
        await require_alive(observer, placed)

        sink_names = [f"c{i}n{chain_len - 1}" for i in range(chains)]

        async def delivered() -> int:
            infos = await asyncio.gather(
                *(controller.node_info(name) for name in sink_names)
            )
            return sum(int(reply["info"].get("received", 0)) for reply in infos)

        for i in range(chains):
            controller.deploy_source(f"c{i}n0", app=i + 1, payload_size=PAYLOAD)
        await asyncio.sleep(warmup)
        before = await delivered()
        await asyncio.sleep(duration)
        count = await delivered() - before
        for i in range(chains):
            observer.observer.terminate_source(controller.node_id(f"c{i}n0"), i + 1)
    finally:
        await controller.stop()
        await observer.stop()
    return ScalePoint(
        label=f"{workers} worker{'s' if workers > 1 else ''}", workers=workers,
        nodes=nodes, aggregate=count * PAYLOAD / duration,
        startup_ms_per_node=startup * 1000.0 / nodes,
    )


def run_cluster_scaling(
    worker_counts: list[int] | None = None,
    chains: int = DEFAULT_CHAINS,
    total_nodes: int = DEFAULT_NODES,
    duration: float = 2.0,
    warmup: float = 0.5,
) -> ClusterScalingResult:
    worker_counts = worker_counts or DEFAULT_WORKERS
    chain_len = total_nodes // chains
    points = [asyncio.run(_run_baseline(chains, chain_len, duration, warmup))]
    for workers in worker_counts:
        points.append(
            asyncio.run(_run_fleet(workers, chains, chain_len, duration, warmup))
        )
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
        os.cpu_count() or 1)
    return ClusterScalingResult(points=points, cpus=cpus)


def main() -> None:
    result = run_cluster_scaling()
    result.table().print()
    best = result.best_cluster_speedup()
    if result.cpus <= 1:
        print(f"single-core host: fleet best {best:.2f}x — process parallelism "
              f"needs >1 core to exceed the single-process baseline")
    elif best > 1.0:
        print(f"fleet exceeds the single process: best {best:.2f}x "
              f"at equal node count")
    else:
        print(f"WARNING: fleet did not exceed the single process "
              f"(best {best:.2f}x on {result.cpus} cores)")


if __name__ == "__main__":
    main()
