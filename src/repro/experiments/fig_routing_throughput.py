"""Routing throughput — backpressure vs the best static (tree) path.

The throughput claim behind the routing subsystem, measured on the
shared-relay grid of :func:`~repro.experiments.topologies.routing_grid`:
two unicast commodities, three bandwidth-capped relays, the middle
relay reachable by both commodities.  A tree heuristic embeds exactly
one source->sink path per commodity, so the best static policy gives
each commodity a single relay — per-commodity capacity ``C``.
Backpressure splits each commodity over both of its relays and shares
the middle one, sustaining ``1.5 C`` per commodity.

Three legs:

* **DES sweep** — injection rate swept as a fraction ``rho`` of the
  single-relay capacity, for backpressure, the delay-aware variant and
  EVERY static relay assignment (the best assignment per point is the
  tree-heuristic baseline).  A point is *sustained* when every
  commodity's delivery rate over the measurement window reaches 95% of
  its injection rate.  The acceptance line: backpressure's largest
  sustained ``rho`` strictly exceeds the best static one.  One cell is
  re-run with the same seed and must reproduce byte-identical delivery
  counts — the DES makes the sweep a deterministic function of
  ``(policy, rho, seed)``.

* **VirtualHost leg** — the same grid as live asyncio engines packed
  in one process, finite digest-checked injection: every injected
  payload is a pure function of ``(commodity, seq, size)``, so the
  sinks' order-independent digests are computable up front.

* **Cluster leg** — the grid sharded across a 2-worker fleet with
  worker telemetry on: delivery is confirmed through ``node_info`` and
  the per-commodity ``ioverlay_routing_*`` series must be visible in
  the ROOT observer's fleet-wide metric roll-up.
"""

from __future__ import annotations

import asyncio
import hashlib
from dataclasses import dataclass

from repro.algorithms.routing import BackpressureRoutingAlgorithm, routing_payload
from repro.algorithms.routing.algorithm import _combined
from repro.experiments.common import KB, Table
from repro.experiments.topologies import (
    RoutingMatrix,
    build_routing_sim,
    routing_grid,
)

#: a commodity is "sustained" when its delivery rate over the window
#: reaches this fraction of its injection rate
SUSTAIN_FRACTION = 0.95

DEFAULT_RELAY_UP = 50 * KB
DEFAULT_SIZE = 1000
DEFAULT_RHOS = (0.7, 0.9, 1.1, 1.3)
SMOKE_RHOS = (0.9, 1.3)


def expected_digest(commodity: int, total: int, size: int) -> str:
    """The digest a sink must hold after consuming seq 0..total-1."""
    parts = {
        f"{commodity}#{seq}":
            hashlib.sha256(routing_payload(commodity, seq, size)).hexdigest()
        for seq in range(total)
    }
    return _combined(parts)


# ----------------------------------------------------------------- DES sweep


@dataclass
class SweepPoint:
    """One (policy, rho, seed) cell of the throughput sweep."""

    policy: str                  # "backpressure" | "delay" | "static:<c7>/<c8>"
    rho: float                   # offered load / single-relay capacity
    seed: int
    offered: float               # msg/s per commodity
    rates: dict[int, float]      # per-commodity delivered msg/s
    delivered: dict[int, int]    # cumulative counts (determinism witness)
    backlog: int                 # residual held messages after the window

    @property
    def sustained(self) -> bool:
        return all(
            rate >= SUSTAIN_FRACTION * self.offered
            for rate in self.rates.values()
        )

    @property
    def worst_ratio(self) -> float:
        if not self.offered:
            return 0.0
        return min(self.rates.values(), default=0.0) / self.offered


def run_des_point(
    policy: str,
    rho: float,
    seed: int = 0,
    assignment: dict[int, str] | None = None,
    relay_up: float = DEFAULT_RELAY_UP,
    size: int = DEFAULT_SIZE,
    warmup: float = 5.0,
    window: float = 10.0,
) -> SweepPoint:
    """One deterministic DES run of the grid under one policy."""
    matrix = routing_grid(relay_up)
    offered = rho * relay_up / size  # msg/s per commodity
    label = policy
    if assignment is not None:
        label = "static:" + "/".join(
            assignment[c] for c in sorted(assignment)
        )
    net = build_routing_sim(
        matrix,
        inject={c: {"count": 1, "size": size} for c in matrix.commodities},
        policy="static" if assignment is not None else policy,
        assignment=assignment,
        inject_tick=1.0 / offered,
        seed=seed,
    )
    net.net.run(warmup)
    before = net.delivered()
    net.net.run(window)
    after = net.delivered()
    rates = {
        c: (after.get(c, 0) - before.get(c, 0)) / window
        for c in matrix.commodities
    }
    return SweepPoint(
        policy=label, rho=rho, seed=seed, offered=offered,
        rates=rates, delivered=after, backlog=net.total_backlog(),
    )


def best_static_point(
    matrix: RoutingMatrix, rho: float, seed: int, **kwargs
) -> SweepPoint:
    """The tree-heuristic baseline: the best single-path assignment."""
    points = [
        run_des_point("static", rho, seed, assignment=assignment, **kwargs)
        for assignment in matrix.static_assignments()
    ]
    return max(points, key=lambda p: p.worst_ratio)


def run_des_sweep(
    rhos: tuple[float, ...] = DEFAULT_RHOS,
    seeds: tuple[int, ...] = (0, 1),
    variants: tuple[str, ...] = ("backpressure", "delay"),
    relay_up: float = DEFAULT_RELAY_UP,
    size: int = DEFAULT_SIZE,
    warmup: float = 5.0,
    window: float = 10.0,
) -> list[SweepPoint]:
    matrix = routing_grid(relay_up)
    kwargs = dict(relay_up=relay_up, size=size, warmup=warmup, window=window)
    points: list[SweepPoint] = []
    for rho in rhos:
        for seed in seeds:
            for variant in variants:
                points.append(run_des_point(variant, rho, seed, **kwargs))
            points.append(best_static_point(matrix, rho, seed, **kwargs))
    return points


def max_sustained(points: list[SweepPoint], policy_prefix: str) -> float:
    """Largest rho the policy sustained at EVERY swept seed."""
    by_rho: dict[float, list[SweepPoint]] = {}
    for p in points:
        if p.policy.startswith(policy_prefix):
            by_rho.setdefault(p.rho, []).append(p)
    sustained = [
        rho for rho, cell in by_rho.items() if all(p.sustained for p in cell)
    ]
    return max(sustained, default=0.0)


def determinism_witness(rho: float = 1.1, seed: int = 0, **kwargs) -> bool:
    """Same (policy, rho, seed) twice -> identical delivery counts."""
    first = run_des_point("backpressure", rho, seed, **kwargs)
    second = run_des_point("backpressure", rho, seed, **kwargs)
    return first.delivered == second.delivered and first.rates == second.rates


# ------------------------------------------------------------ VirtualHost leg


@dataclass
class VirtualLegResult:
    total: int                 # messages per commodity
    delivered: dict[int, int]
    digests_ok: bool
    wall_seconds: float


async def _run_virtual(total: int, size: int, timeout: float) -> VirtualLegResult:
    from repro.cluster.scenarios import wait_until
    from repro.net.engine import NetEngineConfig
    from repro.net.virtual import VirtualHost

    matrix = routing_grid()
    host = VirtualHost()
    algorithms: dict[str, BackpressureRoutingAlgorithm] = {}
    for name in matrix.node_names():
        inject = {
            c: {"count": 2, "size": size, "total": total}
            for c, (source, _) in matrix.commodities.items()
            if source == name
        }
        algorithms[name] = BackpressureRoutingAlgorithm(inject=inject or None)
        host.add_node(algorithms[name], name, NetEngineConfig(report_interval=5.0))
    await host.start()
    # node identities exist only after start on the asyncio backend
    for commodity, (_, sink) in matrix.commodities.items():
        for alg in algorithms.values():
            alg.set_sink(commodity, host[sink])
    for src, dst in matrix.edges:
        assert await host.engine(src).connect(host[dst])

    sinks = {c: algorithms[sink] for c, (_, sink) in matrix.commodities.items()}
    loop = asyncio.get_running_loop()
    start = loop.time()
    await wait_until(
        lambda: all(alg.delivered.get(c, 0) >= total for c, alg in sinks.items()),
        timeout=timeout, interval=0.1,
    )
    wall = loop.time() - start
    delivered = {c: alg.delivered.get(c, 0) for c, alg in sinks.items()}
    digests_ok = all(
        alg.digest(c) == expected_digest(c, total, size)
        for c, alg in sinks.items()
    )
    await host.stop()
    return VirtualLegResult(
        total=total, delivered=delivered, digests_ok=digests_ok,
        wall_seconds=wall,
    )


def run_virtual_leg(
    total: int = 40, size: int = 512, timeout: float = 30.0
) -> VirtualLegResult:
    return asyncio.run(_run_virtual(total, size, timeout))


# --------------------------------------------------------------- cluster leg


@dataclass
class ClusterLegResult:
    workers: int
    total: int
    delivered: dict[int, int]
    #: per-commodity label values seen on ioverlay_routing_delivered_total
    #: in the ROOT observer's fleet-wide metric roll-up
    commodities_at_root: list[str]
    routing_metrics_at_root: list[str]

    @property
    def telemetry_ok(self) -> bool:
        return bool(self.commodities_at_root)


def _grid_specs(matrix: RoutingMatrix, total: int, size: int) -> list:
    """Sinks-first NodeSpecs for the grid (``@name`` refs resolve then)."""
    from repro.cluster.spec import NodeSpec

    algo = "repro.algorithms.routing.algorithm:BackpressureRoutingAlgorithm"
    # "@name" refs resolve at placement, so every node must be placed
    # after all of its out-neighbors: topological order of the reversed
    # edge DAG (sinks have no out-edges and come first).
    remaining = list(matrix.node_names())
    ordered: list[str] = []
    placed: set[str] = set()
    while remaining:
        ready = [
            n for n in remaining
            if all(dst in placed for src, dst in matrix.edges if src == n)
        ]
        if not ready:
            raise ValueError("routing grid edges are cyclic; cannot order specs")
        ordered.extend(ready)
        placed.update(ready)
        remaining = [n for n in remaining if n not in placed]
    specs = []
    for name in ordered:
        kwargs: dict = {}
        own = [c for c, (_, sink) in matrix.commodities.items() if sink == name]
        if own:
            kwargs["sink_self"] = own
        neighbors = [f"@{dst}" for src, dst in matrix.edges if src == name]
        if neighbors:
            kwargs["neighbors"] = neighbors
        inject = {
            str(c): {"count": 2, "size": size, "total": total}
            for c, (source, _) in matrix.commodities.items()
            if source == name
        }
        if inject:
            kwargs["inject"] = inject
        specs.append(NodeSpec(name=name, algorithm=algo, kwargs=kwargs))
    return specs


async def _run_cluster(workers: int, total: int, size: int,
                       timeout: float) -> ClusterLegResult:
    from repro.cluster.controller import ClusterConfig, ClusterController
    from repro.cluster.scenarios import require, require_alive, wait_until
    from repro.core.ids import NodeId
    from repro.net.observer_server import ObserverServer

    matrix = routing_grid()
    observer = ObserverServer(NodeId("127.0.0.1", 0), poll_interval=0.3)
    await observer.start()
    controller = ClusterController(observer, ClusterConfig(
        workers=workers,
        worker_telemetry=True,
        observer_fanout=1,
        observer_flush_interval=0.2,
    ))
    sink_of = {c: sink for c, (_, sink) in matrix.commodities.items()}

    async def delivered() -> dict[int, int]:
        out: dict[int, int] = {}
        for commodity, name in sink_of.items():
            reply = await controller.node_info(name)
            counts = reply["info"].get("delivered", {})
            out[commodity] = int(counts.get(str(commodity), 0))
        return out

    async def all_delivered() -> bool:
        counts = await delivered()
        return all(counts.get(c, 0) >= total for c in sink_of)

    def commodity_labels() -> list[str]:
        family = observer.observer.cluster_metrics().get(
            "ioverlay_routing_delivered_total"
        )
        if not family:
            return []
        return sorted({
            series["labels"].get("commodity", "")
            for series in family["series"]
        })

    try:
        await controller.start()
        placed = await controller.deploy(_grid_specs(matrix, total, size))
        await require_alive(observer, placed, timeout)
        await wait_until(all_delivered, timeout=timeout, interval=0.25)
        final = await delivered()
        await require("commodity labels at the root", lambda: [
            c for c in sink_of if str(c) not in commodity_labels()
        ], timeout)
        labels = commodity_labels()
        routing_families = sorted(
            name for name in observer.observer.cluster_metrics()
            if name.startswith("ioverlay_routing_")
        )
    finally:
        await controller.stop()
        await observer.stop()
    return ClusterLegResult(
        workers=workers, total=total, delivered=final,
        commodities_at_root=labels,
        routing_metrics_at_root=routing_families,
    )


def run_cluster_leg(
    workers: int = 2, total: int = 30, size: int = 512, timeout: float = 45.0
) -> ClusterLegResult:
    return asyncio.run(_run_cluster(workers, total, size, timeout))


# -------------------------------------------------------------------- result


@dataclass
class RoutingThroughputResult:
    points: list[SweepPoint]
    deterministic: bool
    virtual: VirtualLegResult | None
    cluster: ClusterLegResult | None

    def max_backpressure(self) -> float:
        return max_sustained(self.points, "backpressure")

    def max_static(self) -> float:
        return max_sustained(self.points, "static")

    @property
    def separation(self) -> bool:
        """The acceptance line: backpressure beats the best tree path."""
        return self.max_backpressure() > self.max_static()

    def tables(self) -> list[Table]:
        sweep = Table(
            "Routing throughput — shared-relay grid, per-commodity load "
            "as a fraction of single-relay capacity",
            ["policy", "rho", "seed", "delivered/offered (worst)",
             "residual backlog", "sustained"],
        )
        for p in sorted(self.points, key=lambda p: (p.rho, p.policy, p.seed)):
            sweep.add_row(
                p.policy, f"{p.rho:.2f}", p.seed,
                f"{p.worst_ratio:.3f}", p.backlog,
                "yes" if p.sustained else "no",
            )
        sweep.note("static:<x>/<y> = commodity 7 pinned to relay x, 8 to y; "
                   "the best row per rho is what any tree heuristic induces")
        sweep.note(f"sustained = every commodity delivers >= "
                   f"{SUSTAIN_FRACTION:.0%} of its injection rate")
        tables = [sweep]
        summary = Table("Routing throughput — summary", ["metric", "value"])
        summary.add_row("max sustained rho (backpressure)",
                        f"{self.max_backpressure():.2f}")
        summary.add_row("max sustained rho (best static/tree)",
                        f"{self.max_static():.2f}")
        summary.add_row("backpressure > best tree", "yes" if self.separation else "NO")
        summary.add_row("DES rerun byte-identical", "yes" if self.deterministic else "NO")
        if self.virtual is not None:
            summary.add_row(
                "virtual leg delivered",
                f"{self.virtual.delivered} / {self.virtual.total} per commodity",
            )
            summary.add_row("virtual leg digests",
                            "ok" if self.virtual.digests_ok else "MISMATCH")
        if self.cluster is not None:
            summary.add_row(
                f"cluster leg ({self.cluster.workers} workers) delivered",
                f"{self.cluster.delivered} / {self.cluster.total} per commodity",
            )
            summary.add_row("commodities at root observer",
                            ", ".join(self.cluster.commodities_at_root) or "NONE")
            summary.add_row("routing metric families at root",
                            str(len(self.cluster.routing_metrics_at_root)))
        tables.append(summary)
        return tables


def run_routing_throughput(
    smoke: bool = False,
    workers: int = 2,
) -> RoutingThroughputResult:
    if smoke:
        points = run_des_sweep(
            rhos=SMOKE_RHOS, seeds=(0,), variants=("backpressure",),
            warmup=3.0, window=6.0,
        )
        deterministic = determinism_witness(warmup=2.0, window=4.0)
        virtual = run_virtual_leg(total=24)
        cluster = run_cluster_leg(workers=workers, total=20)
    else:
        points = run_des_sweep()
        deterministic = determinism_witness()
        virtual = run_virtual_leg()
        cluster = run_cluster_leg(workers=workers)
    return RoutingThroughputResult(
        points=points, deterministic=deterministic,
        virtual=virtual, cluster=cluster,
    )


def main(argv: list[str] | None = None) -> None:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sweep for CI")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker processes in the cluster leg (2-4)")
    args = parser.parse_args(argv)
    result = run_routing_throughput(smoke=args.smoke, workers=args.workers)
    for table in result.tables():
        table.print()
    problems = []
    if not result.separation:
        problems.append("backpressure did NOT sustain a higher rate than "
                        "the best static path")
    if not result.deterministic:
        problems.append("DES rerun was not byte-identical")
    if result.virtual is not None and not result.virtual.digests_ok:
        problems.append("virtual leg digests mismatched")
    if result.cluster is not None and not result.cluster.telemetry_ok:
        problems.append("no per-commodity routing telemetry at the root observer")
    if problems:
        raise SystemExit("FAIL: " + "; ".join(problems))
    print("routing throughput: backpressure sustains "
          f"rho={result.max_backpressure():.2f} vs best tree "
          f"rho={result.max_static():.2f} — separation confirmed")


if __name__ == "__main__":
    main()
