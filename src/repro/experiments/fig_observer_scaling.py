"""Observer-plane scale-out — the aggregation tree vs the flat funnel.

PR 5's cluster runs every worker's :class:`~repro.net.proxy.ObserverProxy`
as a transparent byte funnel: each node's STATUS report (with its full
telemetry snapshot, forwarded as the very frame the node wrote) crosses
the root observer's sockets on every poll, so root ingress grows with fleet
size times poll rate.  This experiment measures what the hierarchical
observability plane buys: the **same workload** on the **same fleet**
is run twice —

- **funnel**: the flat layout (``observer_fanout=0``), every status and
  metric byte relayed raw to the root on every poll;
- **tree**: workers wired into an aggregation tree
  (``observer_fanout`` children per node), each proxy polling its own
  children, merging their snapshots and flushing only deltas, roll-up
  statuses and head-sampled traces upward once per flush interval.

The workload is deterministic bursts through forwarding chains sharded
round-robin across the workers (so data messages genuinely cross worker
boundaries), and each chain ends in a digest sink.  The digest is a
pure function of the delivered payload bytes, so byte-identical digests
across both runs prove the observability plane changed *nothing* on the
data path.  For each mode we record root-observer ingress (bytes/s and
frames/s over the measured window) and status coverage; the headline is
the ingress reduction factor, which must be >= 10x at 8 workers.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

from repro.cluster.controller import ClusterConfig, ClusterController
from repro.cluster.scenarios import (
    BURST_CONTROL,
    chain_specs,
    require,
    require_alive,
    wait_until,
)
from repro.cluster.spec import NodeSpec
from repro.core.ids import NodeId
from repro.experiments.common import Table
from repro.net.observer_server import ObserverServer

DEFAULT_WORKERS = 8
DEFAULT_CHAINS = 2
DEFAULT_CHAIN_LEN = 8
DEFAULT_FANOUT = 4
BURST_COUNT = 400
BURST_SIZE = 1000
POLL_INTERVAL = 0.25   # identical in both modes: same status cadence
FLUSH_INTERVAL = 1.0   # tree mode: one roll-up per subtree per second
TRACE_SAMPLE = 64      # head-sample lifecycle traces in both modes
TARGET_REDUCTION = 10.0


@dataclass
class ModePoint:
    """Root-observer ingress measured for one layout."""

    label: str              # "funnel" or "tree (fanout=N)"
    seconds: float          # measured window
    bytes_in: int           # root socket ingress over the window
    frames_in: int
    agg_frames: int         # W_AGG roll-ups among them (0 for the funnel)
    statuses: int           # distinct nodes with a status at the root
    delivered: int          # messages consumed across every sink
    digests: dict[str, str]  # sink name -> payload digest

    @property
    def bytes_per_sec(self) -> float:
        return self.bytes_in / self.seconds if self.seconds else 0.0

    @property
    def frames_per_sec(self) -> float:
        return self.frames_in / self.seconds if self.seconds else 0.0


@dataclass
class ObserverScalingResult:
    funnel: ModePoint
    tree: ModePoint
    workers: int
    nodes: int

    @property
    def reduction(self) -> float:
        """Root ingress bytes/s: funnel over tree (higher = better)."""
        return (self.funnel.bytes_per_sec / self.tree.bytes_per_sec
                if self.tree.bytes_per_sec else 0.0)

    @property
    def digests_match(self) -> bool:
        return self.funnel.digests == self.tree.digests

    def table(self) -> Table:
        table = Table(
            f"Observer-plane ingress — {self.nodes} nodes on "
            f"{self.workers} workers, identical burst workload",
            ["layout", "root KB/s", "frames/s", "roll-ups",
             "statuses", "delivered"],
        )
        for point in (self.funnel, self.tree):
            table.add_row(
                point.label,
                f"{point.bytes_per_sec / 1000:.1f}",
                f"{point.frames_per_sec:.1f}",
                point.agg_frames,
                point.statuses,
                point.delivered,
            )
        table.note(f"root ingress reduction: {self.reduction:.1f}x "
                   f"(target >= {TARGET_REDUCTION:.0f}x)")
        table.note("sink digests " +
                   ("byte-identical across layouts — the data path is "
                    "untouched by the observability plane"
                    if self.digests_match else "DIFFER — data path affected!"))
        return table


def _workload(chains: int, chain_len: int) -> list[NodeSpec]:
    """Independent chains, specs unpinned so round-robin placement makes
    consecutive chain hops land on *different* workers — every data
    message crosses real sockets and worker boundaries."""
    specs: list[NodeSpec] = []
    for i in range(chains):
        specs.extend(chain_specs(chain_len, prefix=f"c{i}n"))
    return specs


async def _run_mode(
    label: str, workers: int, chains: int, chain_len: int,
    fanout: int, flush_interval: float | None, settle: float,
) -> ModePoint:
    observer = ObserverServer(NodeId("127.0.0.1", 0), poll_interval=POLL_INTERVAL)
    await observer.start()
    controller = ClusterController(observer, ClusterConfig(
        workers=workers,
        observer_fanout=fanout,
        observer_flush_interval=flush_interval,
        worker_telemetry=True,
        worker_trace_sample=TRACE_SAMPLE,
    ))
    try:
        await controller.start()
        placed = await controller.deploy(_workload(chains, chain_len))
        sink_names = [f"c{i}n{chain_len - 1}" for i in range(chains)]
        await require_alive(observer, placed)
        # Coverage first: every node must have a status at the root before
        # the window opens, through whichever plane this mode uses.
        await require("statuses at the root", lambda: [
            name for name, p in placed.items() if p.node_id not in observer.observer.statuses
        ])

        bytes0, frames0, t0 = observer.bytes_in, observer.frames_in, time.monotonic()
        for i in range(chains):
            controller.send_control(
                f"c{i}n0", BURST_CONTROL, param1=BURST_COUNT, param2=BURST_SIZE,
                app=i + 1,
            )

        async def all_delivered() -> bool:
            infos = await asyncio.gather(
                *(controller.node_info(name) for name in sink_names)
            )
            return all(int(r["info"].get("received", 0)) >= BURST_COUNT for r in infos)

        await wait_until(all_delivered, timeout=30.0, interval=0.1)
        # Steady-state tail: the burst is done, only the observability plane
        # is producing root traffic now — full snapshots every poll for the
        # funnel, near-empty deltas for the tree.
        await asyncio.sleep(settle)
        seconds = time.monotonic() - t0
        bytes_in = observer.bytes_in - bytes0
        frames_in = observer.frames_in - frames0

        infos = await asyncio.gather(
            *(controller.node_info(name) for name in sink_names)
        )
        delivered = sum(int(r["info"].get("received", 0)) for r in infos)
        digests = {
            name: str(reply["info"].get("digests", {}))
            for name, reply in zip(sink_names, infos)
        }
        statuses = len(observer.observer.statuses)
        agg_frames = observer.observer.agg_frames
    finally:
        await controller.stop()
        await observer.stop()
    return ModePoint(
        label=label, seconds=seconds, bytes_in=bytes_in, frames_in=frames_in,
        agg_frames=agg_frames, statuses=statuses, delivered=delivered,
        digests=digests,
    )


def run_observer_scaling(
    workers: int = DEFAULT_WORKERS,
    chains: int = DEFAULT_CHAINS,
    chain_len: int = DEFAULT_CHAIN_LEN,
    fanout: int = DEFAULT_FANOUT,
    settle: float = 4.0,
) -> ObserverScalingResult:
    funnel = asyncio.run(_run_mode(
        "funnel", workers, chains, chain_len,
        fanout=0, flush_interval=None, settle=settle,
    ))
    tree = asyncio.run(_run_mode(
        f"tree (fanout={fanout})", workers, chains, chain_len,
        fanout=fanout, flush_interval=FLUSH_INTERVAL, settle=settle,
    ))
    return ObserverScalingResult(
        funnel=funnel, tree=tree, workers=workers,
        nodes=chains * chain_len,
    )


def main() -> None:
    result = run_observer_scaling()
    result.table().print()
    if not result.digests_match:
        print("WARNING: sink digests differ between layouts — the "
              "observability plane must not touch the data path")
    if result.reduction >= TARGET_REDUCTION:
        print(f"aggregation tree reduces root-observer ingress "
              f"{result.reduction:.1f}x at {result.workers} workers")
    else:
        print(f"WARNING: ingress reduction {result.reduction:.1f}x is below "
              f"the {TARGET_REDUCTION:.0f}x target")


if __name__ == "__main__":
    main()
