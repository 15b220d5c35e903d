"""Deterministic sustained-churn schedules and adversarial topologies.

Production overlays live under *continuous* arrival and departure, not
one-shot faults.  This module generates that workload reproducibly: two
independent Poisson processes (exponential inter-event times from one
seeded ``random.Random``) for joins and departures, optional flash
crowds (a burst of joins at an instant), and a tracked ground-truth
population so departures always name a node that actually exists and
the experiment can judge protocol views against reality.

A :class:`ChurnSchedule` is backend-agnostic: :meth:`to_failure_schedule`
lowers it onto the existing declarative
:class:`~repro.sim.failure.FailureSchedule`, which arms against the DES
kernel (virtual time) or a :class:`~repro.net.virtual.VirtualHost` of
asyncio engines (wall time), both join/leave-capable.

:func:`adversarial_edges` builds the worst-case *initial knowledge*
topologies self-stabilization must escape from (Berns: convergence must
hold from **any** weakly-connected configuration): a line, a star, a
chain of near-isolated clusters, or a sparse random graph.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.sim.failure import FailureSchedule

__all__ = [
    "FlashCrowd",
    "ChurnConfig",
    "ChurnEvent",
    "ChurnSchedule",
    "adversarial_edges",
]


@dataclass(frozen=True)
class FlashCrowd:
    """``size`` nodes arriving (near-)simultaneously at ``at``."""

    at: float
    size: int


@dataclass
class ChurnConfig:
    """Knobs of the churn generator (rates per second of run time)."""

    seed: int = 0
    duration: float = 30.0
    #: expected joins per second (Poisson arrival process)
    arrival_rate: float = 0.5
    #: expected departures per second (Poisson departure process)
    departure_rate: float = 0.5
    #: fraction of departures that are graceful leaves (rest crash)
    leave_fraction: float = 0.0
    flash_crowds: tuple[FlashCrowd, ...] = ()
    #: departures are suppressed when the population would drop below this
    min_population: int = 3
    #: only nodes present at t=0 plus churn joins may depart
    quiesce: float = 0.0  # no events scheduled after duration - quiesce


@dataclass(frozen=True)
class ChurnEvent:
    """One ground-truth churn action at one instant."""

    at: float
    kind: str  # "join" | "crash" | "leave"
    name: str  # symbolic node name (resolved by the backend at fire time)


@dataclass
class ChurnSchedule:
    """A reproducible churn workload plus its ground-truth bookkeeping."""

    events: list[ChurnEvent] = field(default_factory=list)
    initial: tuple[str, ...] = ()

    @classmethod
    def generate(cls, config: ChurnConfig, initial: list[str]) -> "ChurnSchedule":
        """Draw a schedule from ``config`` over the starting population."""
        if config.arrival_rate < 0 or config.departure_rate < 0:
            raise ConfigurationError("churn rates must be >= 0")
        rng = random.Random(config.seed)
        horizon = config.duration - config.quiesce
        events: list[ChurnEvent] = []

        # Candidate instants for each process, then a single merged,
        # population-aware replay so departures always have a victim.
        proposals: list[tuple[float, str]] = []
        for rate, kind in ((config.arrival_rate, "join"),
                           (config.departure_rate, "depart")):
            if rate <= 0:
                continue
            t = 0.0
            while True:
                t += rng.expovariate(rate)
                if t >= horizon:
                    break
                proposals.append((t, kind))
        for crowd in config.flash_crowds:
            for i in range(crowd.size):
                # stagger within a millisecond to keep fire times unique
                proposals.append((crowd.at + i * 1e-6, "join"))
        proposals.sort()

        population = list(initial)
        joined = 0
        for at, kind in proposals:
            if kind == "join":
                joined += 1
                name = f"churn-j{joined}"
                population.append(name)
                events.append(ChurnEvent(at, "join", name))
            else:
                if len(population) <= config.min_population:
                    continue  # suppressed: the overlay must not die out
                victim = population.pop(rng.randrange(len(population)))
                graceful = rng.random() < config.leave_fraction
                events.append(
                    ChurnEvent(at, "leave" if graceful else "crash", victim)
                )
        return cls(events=events, initial=tuple(initial))

    # ------------------------------------------------------------ bookkeeping

    def joins(self) -> list[ChurnEvent]:
        return [e for e in self.events if e.kind == "join"]

    def departures(self) -> list[ChurnEvent]:
        return [e for e in self.events if e.kind != "join"]

    def alive_after(self, t: float) -> set[str]:
        """Ground truth: names alive once every event at or before ``t`` fired."""
        alive = set(self.initial)
        for event in self.events:
            if event.at > t:
                break
            if event.kind == "join":
                alive.add(event.name)
            else:
                alive.discard(event.name)
        return alive

    def final_alive(self) -> set[str]:
        return self.alive_after(float("inf"))

    # ------------------------------------------------------------- lowering

    def to_failure_schedule(self) -> FailureSchedule:
        """Lower onto the backend-agnostic declarative fault schedule."""
        schedule = FailureSchedule()
        for event in self.events:
            if event.kind == "join":
                schedule.join_node(event.at, event.name)
            elif event.kind == "crash":
                schedule.kill_node(event.at, event.name)
            else:
                schedule.leave_node(event.at, event.name)
        return schedule


def adversarial_edges(
    kind: str, n: int, rng: random.Random | None = None
) -> list[tuple[int, int]]:
    """Directed knowledge/link edges of a worst-case initial topology.

    Returned as index pairs ``(i, j)`` meaning "node i knows/links node
    j"; every variant is weakly connected (the precondition of every
    self-stabilization guarantee) and as far from the sorted ring as the
    constraint allows:

    - ``line``: i -> i+1 only — diameter n-1, the slowest rumour mixer;
    - ``star``: hub -> all — the hub is a single point of knowledge;
    - ``clusters``: ~sqrt(n) internally-lined islands whose heads form a
      chain — locally dense, globally starved;
    - ``random``: a sparse random spanning tree plus a few chords.
    """
    if n < 1:
        raise ConfigurationError("topology needs at least one node")
    if kind == "line":
        return [(i, i + 1) for i in range(n - 1)]
    if kind == "star":
        return [(0, i) for i in range(1, n)]
    if kind == "clusters":
        size = max(2, int(round(n ** 0.5)))
        edges: list[tuple[int, int]] = []
        heads = list(range(0, n, size))
        for head in heads:
            for i in range(head, min(head + size, n) - 1):
                edges.append((i, i + 1))
        for a, b in zip(heads, heads[1:]):
            edges.append((a, b))
        return edges
    if kind == "random":
        if rng is None:
            rng = random.Random(0)
        edges = [(rng.randrange(i), i) for i in range(1, n)]
        for _ in range(n // 4):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                edges.append((i, j))
        return edges
    raise ConfigurationError(f"unknown adversarial topology {kind!r}")
