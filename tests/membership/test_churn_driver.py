"""The deterministic churn generator and its lowering onto both backends."""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.errors import ConfigurationError
from repro.membership.churn import (
    ChurnConfig,
    ChurnSchedule,
    FlashCrowd,
    adversarial_edges,
)
from repro.membership.swim import SwimMembershipAlgorithm
from repro.net.virtual import VirtualHost
from repro.sim.network import NetworkConfig, SimNetwork


# ---------------------------------------------------------------- generation


class TestGenerate:
    def test_same_seed_same_schedule(self):
        cfg = ChurnConfig(seed=5, duration=30.0, arrival_rate=1.0,
                          departure_rate=1.0, leave_fraction=0.5)
        initial = [f"n{i}" for i in range(10)]
        a = ChurnSchedule.generate(cfg, initial)
        b = ChurnSchedule.generate(cfg, initial)
        assert a.events == b.events
        c = ChurnSchedule.generate(
            ChurnConfig(**{**cfg.__dict__, "seed": 6}), initial
        )
        assert a.events != c.events

    def test_departures_always_name_a_live_node(self):
        schedule = ChurnSchedule.generate(
            ChurnConfig(seed=2, duration=60.0, arrival_rate=2.0,
                        departure_rate=2.0, min_population=3),
            [f"n{i}" for i in range(5)],
        )
        alive = set(schedule.initial)
        for event in schedule.events:
            if event.kind == "join":
                alive.add(event.name)
            else:
                assert event.name in alive
                alive.discard(event.name)
            assert len(alive) >= 3

    def test_flash_crowd_joins_at_instant(self):
        crowd = FlashCrowd(at=10.0, size=25)
        schedule = ChurnSchedule.generate(
            ChurnConfig(seed=1, duration=20.0, arrival_rate=0.0,
                        departure_rate=0.0, flash_crowds=(crowd,)),
            ["n0", "n1", "n2"],
        )
        joins = schedule.joins()
        assert len(joins) == 25
        assert all(10.0 <= e.at < 10.001 for e in joins)

    def test_alive_after_tracks_ground_truth(self):
        schedule = ChurnSchedule.generate(
            ChurnConfig(seed=3, duration=30.0, arrival_rate=1.0,
                        departure_rate=1.0),
            [f"n{i}" for i in range(6)],
        )
        assert schedule.alive_after(-1.0) == set(schedule.initial)
        final = schedule.final_alive()
        expected = set(schedule.initial)
        for event in schedule.events:
            (expected.add if event.kind == "join" else expected.discard)(
                event.name
            )
        assert final == expected

    def test_negative_rates_rejected(self):
        with pytest.raises(ConfigurationError):
            ChurnSchedule.generate(
                ChurnConfig(arrival_rate=-1.0), ["a", "b", "c"]
            )


# ------------------------------------------------------------------ lowering


def test_lowering_maps_event_kinds():
    schedule = ChurnSchedule.generate(
        ChurnConfig(seed=4, duration=30.0, arrival_rate=1.0,
                    departure_rate=1.0, leave_fraction=0.5),
        [f"n{i}" for i in range(8)],
    )
    lowered = schedule.to_failure_schedule()
    kinds = {"join": "join_node", "crash": "kill_node", "leave": "leave_node"}
    assert len(lowered.events) == len(schedule.events)
    for ours, theirs in zip(schedule.events, lowered.events):
        assert theirs.kind == kinds[ours.kind]
        assert str(theirs.node) == ours.name
        assert theirs.at == ours.at


def test_sim_arm_requires_node_factory_for_joins():
    net = SimNetwork()
    net.add_node(SwimMembershipAlgorithm(seed=0), name="n0")
    net.start()
    schedule = ChurnSchedule(
        events=[], initial=("n0",)
    ).to_failure_schedule().join_node(1.0, "late")
    with pytest.raises(ConfigurationError):
        schedule.arm(net)


def test_churn_replays_on_sim_network():
    """End to end: generated churn drives a live SWIM deployment."""
    net = SimNetwork(NetworkConfig(seed=7))
    for i in range(5):
        net.add_node(SwimMembershipAlgorithm(seed=i), name=f"n{i}")
    net.start()
    net.run(8)  # bootstrap, views converge

    seeds = iter(range(100, 200))

    def node_factory(network, name):
        # add_node on a started network starts the engine immediately
        network.add_node(SwimMembershipAlgorithm(seed=next(seeds)), name=name)

    schedule = ChurnSchedule(
        events=[], initial=tuple(f"n{i}" for i in range(5))
    )
    lowered = schedule.to_failure_schedule()
    # sim arming is at absolute virtual times: offset past the bootstrap
    lowered.join_node(net.now + 1.0, "late-1")
    lowered.kill_node(net.now + 3.0, "n1")
    lowered.arm(net, node_factory=node_factory)
    net.run(20)

    late = net["late-1"]
    dead = net["n1"]
    for name in ("n0", "n2", "n3", "n4"):
        alg = net.engine(name).algorithm
        assert late in alg.known_hosts, f"{name} never learned the joiner"
        assert dead not in alg.known_hosts, f"{name} still believes the dead"


def test_chaos_arm_requires_node_factory_for_joins():
    async def scenario():
        cluster = VirtualHost()
        schedule = ChurnSchedule(
            events=[], initial=()
        ).to_failure_schedule().join_node(0.5, "late")
        try:
            with pytest.raises(ConfigurationError):
                schedule.arm(cluster)
        finally:
            await cluster.stop()

    asyncio.run(scenario())


# ------------------------------------------------------- adversarial topology


class TestAdversarialEdges:
    @staticmethod
    def components(n: int, edges: list[tuple[int, int]]) -> int:
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, j in edges:
            parent[find(i)] = find(j)
        return len({find(i) for i in range(n)})

    @pytest.mark.parametrize("kind", ["line", "star", "clusters", "random"])
    def test_weakly_connected(self, kind):
        n = 60
        edges = adversarial_edges(kind, n, random.Random(3))
        assert self.components(n, edges) == 1
        assert all(0 <= i < n and 0 <= j < n for i, j in edges)

    def test_line_is_sparsest(self):
        assert len(adversarial_edges("line", 50)) == 49

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            adversarial_edges("clique", 10)
