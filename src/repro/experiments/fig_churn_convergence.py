"""Extension experiment — convergence under sustained churn.

Two legs, one protocol:

* **Slotted leg** — the SWIM core + incremental ring pointer under the
  round-based simulator (:mod:`repro.membership.slotted`), which runs
  the identical protocol logic at 10^4–10^5 nodes.  Starting from an
  adversarial weakly-connected topology, a seeded Poisson churn window
  (plus an optional flash crowd) plays out, and we report the
  convergence round (first round of the stable legal-ring suffix after
  the churn ends), the residual disruption during churn (mean fraction
  of alive nodes whose successor pointer is wrong) and the per-node
  message cost.

* **Live leg** — full :class:`~repro.net.engine.AsyncioEngine` nodes
  running :class:`~repro.algorithms.stabilize.SelfStabilizingRingAlgorithm`
  on a :class:`~repro.net.virtual.VirtualHost` with a chaos controller
  (localhost sockets), with the same churn schedule lowered to a
  :class:`~repro.sim.failure.FailureSchedule` and replayed in wall-clock
  time.  Convergence is judged against the ground-truth oracle
  (:func:`~repro.algorithms.stabilize.ring.ideal_successors`), and the
  run also reports how many asyncio tasks remained after teardown —
  the leak check that makes "survived churn" mean *cleanly* survived.

Both legs consume the same :class:`~repro.membership.churn.ChurnSchedule`
generator, so a seed names one workload across scales and backends.
"""

from __future__ import annotations

import asyncio
import random
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.experiments.common import Table
from repro.membership import (
    ChurnConfig,
    ChurnSchedule,
    FlashCrowd,
    SwimConfig,
    adversarial_edges,
)
from repro.membership.slotted import SlottedChurnSim, SlottedStats

# ------------------------------------------------------------- slotted leg


@dataclass
class SlottedPoint:
    """One (population, topology) cell of the convergence curve."""

    n_nodes: int
    topology: str
    churned: bool
    convergence_round: int | None
    residual_disruption: float
    packets_per_node_round: float
    reseeds: int
    wall_seconds: float
    stats: SlottedStats = field(repr=False, default=None)


def _default_churn(n_nodes: int, seed: int, duration: float) -> ChurnSchedule:
    """A churn window scaled to the population: ~10% turnover plus a
    flash crowd of 2% arriving at the midpoint."""
    rate = max(0.2, 0.05 * n_nodes / duration)
    config = ChurnConfig(
        seed=seed,
        duration=duration,
        arrival_rate=rate,
        departure_rate=rate,
        leave_fraction=0.3,
        flash_crowds=(FlashCrowd(at=duration / 2, size=max(2, n_nodes // 50)),),
        min_population=max(3, n_nodes // 2),
        quiesce=2.0,
    )
    return ChurnSchedule.generate(config, [f"n{i}" for i in range(n_nodes)])


def run_slotted_point(
    n_nodes: int = 10_000,
    topology: str = "line",
    seed: int = 0,
    churn: bool = True,
    churn_duration: float = 30.0,
    max_rounds: int = 600,
) -> SlottedPoint:
    """One slotted run: adversarial start, optional churn window."""
    edges = adversarial_edges(topology, n_nodes, rng=random.Random(seed))
    schedule = _default_churn(n_nodes, seed, churn_duration) if churn else None
    sim = SlottedChurnSim(n_nodes, edges, seed=seed, churn=schedule)
    start = time.perf_counter()
    stats = sim.run(max_rounds)
    wall = time.perf_counter() - start
    per_node_round = (
        stats.packets / stats.node_rounds if stats.node_rounds else 0.0
    )
    return SlottedPoint(
        n_nodes=n_nodes,
        topology=topology,
        churned=schedule is not None,
        convergence_round=stats.convergence_round,
        residual_disruption=stats.residual_disruption,
        packets_per_node_round=per_node_round,
        reseeds=stats.reseeds,
        wall_seconds=wall,
        stats=stats,
    )


def run_slotted_curves(
    sizes: tuple[int, ...] = (1_000, 10_000),
    topologies: tuple[str, ...] = ("line", "clusters"),
    seed: int = 0,
    churn: bool = True,
    max_rounds: int = 600,
) -> list[SlottedPoint]:
    """The convergence-time curve: every (size, topology) cell."""
    return [
        run_slotted_point(
            n_nodes=n, topology=topology, seed=seed, churn=churn,
            max_rounds=max_rounds,
        )
        for n in sizes
        for topology in topologies
    ]


# ---------------------------------------------------------------- live leg


@dataclass
class LiveChurnRun:
    """Outcome of the wall-clock VirtualHost leg."""

    n_start: int
    n_final: int
    joins: int
    crashes: int
    leaves: int
    bootstrap_seconds: float      # adversarial line -> first legal ring
    reconverge_seconds: float     # churn quiesce -> legal ring again
    converged: bool
    leaked_tasks: int


async def _run_live(
    n_nodes: int,
    seed: int,
    duration: float,
    period: float,
    convergence_timeout: float,
) -> LiveChurnRun:
    from repro.algorithms.stabilize import (
        SelfStabilizingRingAlgorithm,
        ideal_successors,
    )
    from repro.cluster.scenarios import wait_until
    from repro.errors import UnknownNodeError
    from repro.net.chaos import ChaosController
    from repro.net.engine import NetEngineConfig
    from repro.net.virtual import VirtualHost

    cluster = VirtualHost(chaos=ChaosController())
    next_seed = [seed]

    async def add_node(name: str) -> SelfStabilizingRingAlgorithm:
        next_seed[0] += 1
        algorithm = SelfStabilizingRingAlgorithm(
            config=SwimConfig(
                period=period, ping_timeout=period * 0.4, suspicion_mult=3.0
            ),
            seed=next_seed[0],
        )
        await cluster.start_node(cluster.add_node(
            algorithm, name, NetEngineConfig(report_interval=1000.0)
        ))
        return algorithm

    names = [f"n{i}" for i in range(n_nodes)]
    algorithms = [await add_node(name) for name in names]
    # Adversarial bootstrap knowledge: a line (i knows only i+1), the
    # slowest-mixing weakly connected topology.
    for algorithm, right in zip(algorithms, names[1:]):
        algorithm.known_hosts.add(cluster[right])
    for algorithm in algorithms:
        algorithm.on_bootstrapped()

    def ring_converged(alive: set[str]) -> bool:
        try:
            members = [cluster.engine(name).algorithm for name in alive]
        except UnknownNodeError:
            return False  # a joiner is still starting
        if len(members) < 2:
            return True
        oracle = ideal_successors([alg.node_id for alg in members])
        return all(
            alg.ring_legal() and alg.successor() == oracle[alg.node_id]
            for alg in members
        )

    loop = asyncio.get_running_loop()
    t0 = loop.time()
    booted = await wait_until(
        lambda: ring_converged(set(names)), convergence_timeout, interval=0.1
    )
    bootstrap_seconds = loop.time() - t0

    # Replay the seeded churn schedule in wall time.
    churn = ChurnSchedule.generate(
        ChurnConfig(
            seed=seed,
            duration=duration,
            arrival_rate=0.5,
            departure_rate=0.5,
            leave_fraction=0.4,
            min_population=max(3, n_nodes // 2),
            quiesce=1.0,
        ),
        names,
    )
    joined_at = {event.name: event.at for event in churn.joins()}
    seniority = names + list(joined_at)

    async def join(_: VirtualHost, name: str) -> None:
        # The joiner's one contact: the senior-most node alive when it arrives.
        alive = churn.alive_after(joined_at[name])
        contact = next(node for node in seniority if node in alive and node != name)
        algorithm = await add_node(name)
        algorithm.known_hosts.add(cluster[contact])
        algorithm.on_bootstrapped()

    churn.to_failure_schedule().arm(cluster, node_factory=join)
    await asyncio.sleep(max((event.at for event in churn.events), default=0.0))

    t1 = loop.time()
    final = churn.final_alive()
    converged = await wait_until(
        lambda: ring_converged(final), convergence_timeout, interval=0.1
    )
    reconverge_seconds = loop.time() - t1

    await cluster.stop()
    await asyncio.sleep(0.05)  # let cancellations unwind
    current = asyncio.current_task()
    leaked = [
        task for task in asyncio.all_tasks()
        if task is not current and not task.done()
    ]
    kinds = Counter(event.kind for event in churn.events)
    return LiveChurnRun(
        n_start=n_nodes,
        n_final=len(final),
        joins=kinds["join"],
        crashes=kinds["crash"],
        leaves=kinds["leave"],
        bootstrap_seconds=bootstrap_seconds,
        reconverge_seconds=reconverge_seconds,
        converged=bool(booted and converged),
        leaked_tasks=len(leaked),
    )


def run_live_churn(
    n_nodes: int = 10,
    seed: int = 0,
    duration: float = 6.0,
    period: float = 0.25,
    convergence_timeout: float = 25.0,
) -> LiveChurnRun:
    """Run the live VirtualHost leg (its own event loop)."""
    return asyncio.run(
        _run_live(n_nodes, seed, duration, period, convergence_timeout)
    )


# ------------------------------------------------------------------ result


@dataclass
class ChurnConvergenceResult:
    points: list[SlottedPoint]
    live: LiveChurnRun | None

    def tables(self) -> list[Table]:
        tables = []
        curve = Table(
            "Churn convergence — slotted protocol core (DES rounds)",
            ["nodes", "topology", "churn", "convergence round",
             "residual disruption", "pkts/node/round", "rescues"],
        )
        for point in self.points:
            curve.add_row(
                point.n_nodes,
                point.topology,
                "yes" if point.churned else "no",
                point.convergence_round
                if point.convergence_round is not None else "-",
                f"{point.residual_disruption:.4f}",
                f"{point.packets_per_node_round:.2f}",
                point.reseeds,
            )
        curve.note("convergence round = first round of the sustained "
                   "legal-ring suffix after the churn window closes")
        curve.note("residual disruption = mean fraction of alive nodes "
                   "with a wrong successor pointer while churn is active")
        tables.append(curve)
        if self.live is not None:
            live = Table(
                "Churn convergence — live VirtualHost leg",
                ["metric", "value"],
            )
            run = self.live
            live.add_row("starting nodes", run.n_start)
            live.add_row("final nodes", run.n_final)
            live.add_row("joins / crashes / leaves",
                         f"{run.joins} / {run.crashes} / {run.leaves}")
            live.add_row("bootstrap convergence (s)",
                         f"{run.bootstrap_seconds:.2f}")
            live.add_row("re-convergence after churn (s)",
                         f"{run.reconverge_seconds:.2f}")
            live.add_row("oracle agreement", "yes" if run.converged else "NO")
            live.add_row("leaked asyncio tasks", run.leaked_tasks)
            live.note("oracle agreement: every survivor's successor matches "
                      "ideal_successors() over the ground-truth alive set")
            tables.append(live)
        return tables


def run_churn_convergence(
    sizes: tuple[int, ...] = (1_000, 10_000),
    topologies: tuple[str, ...] = ("line", "clusters"),
    seed: int = 0,
    live_nodes: int = 10,
    max_rounds: int = 600,
) -> ChurnConvergenceResult:
    points = run_slotted_curves(
        sizes=sizes, topologies=topologies, seed=seed, max_rounds=max_rounds
    )
    live = run_live_churn(n_nodes=live_nodes, seed=seed)
    return ChurnConvergenceResult(points=points, live=live)


def main() -> None:
    result = run_churn_convergence()
    for table in result.tables():
        table.print()


if __name__ == "__main__":
    main()
