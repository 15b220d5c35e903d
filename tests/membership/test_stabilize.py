"""Detector/corrector ring repair: pure arithmetic and the live algorithm."""

from __future__ import annotations

from repro.algorithms.stabilize import (
    SelfStabilizingRingAlgorithm,
    ideal_successors,
    plan_repair,
    ring_targets,
)
from repro.core.ids import NodeId
from repro.sim.network import NetworkConfig, SimNetwork


def nid(i: int) -> NodeId:
    return NodeId(f"10.1.0.{i}", 9000)


# ------------------------------------------------------------- pure invariant


class TestRingArithmetic:
    def test_targets_are_clockwise_successors(self):
        nodes = [nid(i) for i in range(8)]
        oracle = ideal_successors(nodes)
        for node in nodes:
            alive = [n for n in nodes if n != node]
            assert ring_targets(node, alive, 1) == [oracle[node]]

    def test_tiny_ring_is_a_clique(self):
        a, b, c = nid(1), nid(2), nid(3)
        assert set(ring_targets(a, [b, c], r=5)) == {b, c}
        assert ring_targets(a, [], r=1) == []

    def test_plan_connects_missing_and_drops_stale(self):
        nodes = [nid(i) for i in range(6)]
        me, alive = nodes[0], nodes[1:]
        succ = ring_targets(me, alive, 1)[0]
        stale = next(n for n in alive if n != succ)
        plan = plan_repair(me, alive, ring_links={stale}, r=1)
        assert not plan.legal
        assert plan.connect == (succ,)
        assert plan.disconnect == (stale,)
        legal = plan_repair(me, alive, ring_links={succ}, r=1)
        assert legal.legal and not legal.connect and not legal.disconnect

    def test_oracle_forms_a_single_cycle(self):
        nodes = [nid(i) for i in range(9)]
        oracle = ideal_successors(nodes)
        seen, cur = set(), nodes[0]
        while cur not in seen:
            seen.add(cur)
            cur = oracle[cur]
        assert seen == set(nodes)


# --------------------------------------------------------------- live repair


def build_ring_net(n: int, seed: int = 1):
    net = SimNetwork(NetworkConfig(seed=seed))
    algorithms = [
        SelfStabilizingRingAlgorithm(seed=seed + i) for i in range(n)
    ]
    for i, algorithm in enumerate(algorithms):
        net.add_node(algorithm, name=f"r{i}")
    net.start()
    return net, algorithms


def assert_ring_converged(net, algorithms):
    alive = [alg.node_id for alg in algorithms]
    oracle = ideal_successors(alive)
    for alg in algorithms:
        assert alg.successor() == oracle[alg.node_id]
        assert oracle[alg.node_id] in net.engine(alg.node_id).downstreams()
        assert alg.ring_legal()


def test_ring_emerges_from_bootstrap_knowledge():
    net, algorithms = build_ring_net(8)
    net.run(20)
    assert_ring_converged(net, algorithms)


def test_ring_reconverges_after_crash():
    net, algorithms = build_ring_net(8)
    net.run(20)
    assert_ring_converged(net, algorithms)
    net.kill_node("r0")
    survivors = algorithms[1:]
    net.run(25)  # detect the death, then repair around the gap
    assert_ring_converged(net, survivors)


def test_repairs_counted_and_stop_when_legal():
    net, algorithms = build_ring_net(6)
    net.run(20)
    assert all(alg.repairs > 0 for alg in algorithms)
    before = [alg.repairs for alg in algorithms]
    net.run(10)  # stable: the corrector must go quiet
    assert [alg.repairs for alg in algorithms] == before
