"""Process-free unit tests: placement policies, specs, reference wiring."""

import pytest

from repro.cluster.placement import (
    BinPackPlacement,
    CapacityPlacement,
    ControllerLoad,
    RoundRobinPlacement,
    WeightedControllerPlacement,
    make_controller_placement,
    make_placement,
)
from repro.cluster.scenarios import butterfly_specs, chain_specs
from repro.cluster.spec import (
    NodeSpec,
    build_algorithm,
    coerce_node_refs,
    load_algorithm_class,
    ref,
    resolve_refs,
)
from repro.core.ids import NodeId
from repro.errors import ClusterError


def spec(name, weight=1.0, pin=None):
    return NodeSpec(name=name, algorithm="x:Y", weight=weight, pin=pin)


class TestPlacementPolicies:
    def test_round_robin_cycles_the_live_workers(self):
        policy = RoundRobinPlacement()
        load = {"w0": 0.0, "w1": 0.0, "w2": 0.0}
        picks = [policy.choose(spec(f"n{i}"), load) for i in range(7)]
        assert picks == ["w0", "w1", "w2", "w0", "w1", "w2", "w0"]

    def test_round_robin_adapts_when_the_fleet_shrinks(self):
        policy = RoundRobinPlacement()
        assert policy.choose(spec("a"), {"w0": 0.0, "w1": 0.0}) == "w0"
        # w0 died: the rotation continues over whoever is live
        picks = {policy.choose(spec(f"n{i}"), {"w1": 0.0}) for i in range(3)}
        assert picks == {"w1"}

    def test_bin_pack_picks_the_least_loaded(self):
        policy = BinPackPlacement()
        assert policy.choose(spec("a"), {"w0": 3.0, "w1": 1.0, "w2": 2.0}) == "w1"

    def test_bin_pack_breaks_ties_by_worker_order(self):
        policy = BinPackPlacement()
        assert policy.choose(spec("a"), {"w0": 1.0, "w1": 1.0}) == "w0"

    def test_bin_pack_respects_weights_over_counts(self):
        # one heavy node on w0 outweighs two light ones on w1
        policy = BinPackPlacement()
        assert policy.choose(spec("a"), {"w0": 4.0, "w1": 2.0}) == "w1"

    def test_make_placement(self):
        assert isinstance(make_placement("round-robin"), RoundRobinPlacement)
        assert isinstance(make_placement("bin-pack"), BinPackPlacement)
        with pytest.raises(ClusterError):
            make_placement("gravity")

    def test_empty_fleet_raises(self):
        with pytest.raises(ClusterError):
            RoundRobinPlacement().choose(spec("a"), {})
        with pytest.raises(ClusterError):
            BinPackPlacement().choose(spec("a"), {})


class TestSpecRefs:
    def test_resolve_and_coerce_round_trip(self):
        sink = NodeId("127.0.0.1", 9001)
        wire = resolve_refs(
            {"downstreams": [ref("sink")], "k": 2, "label": "plain"},
            {"sink": sink}.__getitem__,
        )
        assert wire == {
            "downstreams": ["noderef:127.0.0.1:9001"], "k": 2, "label": "plain"
        }
        coerced = {key: coerce_node_refs(value) for key, value in wire.items()}
        assert coerced == {"downstreams": [sink], "k": 2, "label": "plain"}

    def test_unplaced_reference_names_the_sinks_first_rule(self):
        with pytest.raises(ClusterError, match="sinks-first"):
            resolve_refs({"downstreams": [ref("ghost")]}, {}.__getitem__)

    def test_load_algorithm_class_errors(self):
        with pytest.raises(ClusterError, match="module:Class"):
            load_algorithm_class("no.colon.here")
        with pytest.raises(ClusterError, match="cannot import"):
            load_algorithm_class("no.such.module:Thing")
        with pytest.raises(ClusterError, match="no class"):
            load_algorithm_class("repro.cluster.spec:Nonexistent")

    def test_build_algorithm_reports_bad_kwargs(self):
        with pytest.raises(ClusterError, match="cannot construct"):
            build_algorithm(
                "repro.cluster.scenarios:DigestSinkAlgorithm", {"bogus": 1}
            )


class TestTopologies:
    def assert_sinks_first(self, specs):
        """Every @ref must point at a spec earlier in the list."""
        placed = set()
        for node_spec in specs:
            for value in node_spec.kwargs.values():
                items = value if isinstance(value, list) else [value]
                for item in items:
                    if isinstance(item, str) and item.startswith("@"):
                        assert item[1:] in placed, (
                            f"{node_spec.name} references {item} before placement"
                        )
            placed.add(node_spec.name)

    def test_chain_specs_are_sinks_first(self):
        specs = chain_specs(10)
        assert [s.name for s in specs] == [f"n{i}" for i in range(9, -1, -1)]
        self.assert_sinks_first(specs)
        assert specs[-1].name == "n0" and specs[-1].weight == 2.0

    def test_chain_needs_two_nodes(self):
        with pytest.raises(ValueError):
            chain_specs(1)

    def test_butterfly_specs_are_sinks_first(self):
        specs = butterfly_specs()
        self.assert_sinks_first(specs)
        assert {s.name for s in specs} == set("ABCDEFG")


def ctl(load=0.0, capacity=0.0, weight=1.0):
    return ControllerLoad(load=load, capacity=capacity, weight=weight)


class TestControllerPlacement:
    """Stage one of two-stage placement: root -> child controller."""

    def test_capacity_picks_most_free_headroom(self):
        policy = CapacityPlacement()
        fleet = {"a": ctl(load=1.0, capacity=4.0), "b": ctl(load=1.0, capacity=8.0)}
        assert policy.choose(spec("x"), fleet) == "b"

    def test_capacity_skips_full_controllers(self):
        policy = CapacityPlacement()
        fleet = {"a": ctl(load=4.0, capacity=4.0), "b": ctl(load=3.5, capacity=4.0)}
        # only b has room for a unit-weight spec
        assert policy.choose(spec("x", weight=0.5), fleet) == "b"

    def test_capacity_overflows_least_loaded_when_everyone_is_full(self):
        policy = CapacityPlacement()
        fleet = {"a": ctl(load=5.0, capacity=4.0), "b": ctl(load=4.0, capacity=4.0)}
        assert policy.choose(spec("x"), fleet) == "b"

    def test_undeclared_capacity_is_unbounded_and_balances_by_load(self):
        policy = CapacityPlacement()
        fleet = {"a": ctl(load=3.0), "b": ctl(load=1.0)}
        assert policy.choose(spec("x"), fleet) == "b"

    def test_capacity_ties_break_by_join_order(self):
        policy = CapacityPlacement()
        fleet = {"a": ctl(), "b": ctl()}
        assert policy.choose(spec("x"), fleet) == "a"

    def test_weighted_evens_out_load_per_declared_weight(self):
        policy = WeightedControllerPlacement()
        # a carries 4 at weight 2 (ratio 2); b carries 3 at weight 1
        # (ratio 3): a is effectively less loaded despite more specs
        fleet = {"a": ctl(load=4.0, weight=2.0), "b": ctl(load=3.0, weight=1.0)}
        assert policy.choose(spec("x"), fleet) == "a"

    def test_weighted_heterogeneous_spec_weights_accumulate(self):
        policy = WeightedControllerPlacement()
        fleet = {"a": ctl(load=0.0, weight=1.0), "b": ctl(load=0.0, weight=3.0)}
        # simulate a sinks-first deploy of heterogeneous specs: the
        # heavy controller should absorb ~3x the total weight
        loads = {"a": 0.0, "b": 0.0}
        for weight in (2.0, 1.0, 1.0, 2.0, 1.0, 1.0, 2.0, 1.0, 1.0):
            fleet = {
                name: ctl(load=loads[name], weight=3.0 if name == "b" else 1.0)
                for name in ("a", "b")
            }
            chosen = policy.choose(spec("x", weight=weight), fleet)
            loads[chosen] += weight
        # ideal split is 3:9; greedy ratio-balancing lands within one
        # spec of it — the heavy controller carries at least 2x
        assert loads["b"] >= 2 * loads["a"]

    def test_empty_fleet_raises(self):
        with pytest.raises(ClusterError):
            CapacityPlacement().choose(spec("x"), {})
        with pytest.raises(ClusterError):
            WeightedControllerPlacement().choose(spec("x"), {})

    def test_make_controller_placement(self):
        assert isinstance(make_controller_placement("capacity"), CapacityPlacement)
        assert isinstance(
            make_controller_placement("weighted"), WeightedControllerPlacement
        )
        with pytest.raises(ClusterError):
            make_controller_placement("gravity")


class TestReadinessGate:
    """A fleet that never finishes starting raises instead of being measured."""

    def test_a_node_never_alive_is_named_and_the_fleet_is_stopped(self, monkeypatch):
        import asyncio

        from repro.cluster import controller as controller_mod
        from repro.cluster.spec import PlacedNode
        from repro.experiments.fig_routing_throughput import _run_cluster
        from repro.net import observer_server

        stopped, missing = [], []

        class Observer:
            def __init__(self, addr, poll_interval):
                self.observer = type("Plane", (), {"alive": set()})()

            async def start(self):
                pass

            async def stop(self):
                stopped.append("observer")

        class Controller:
            def __init__(self, observer, config):
                self.observer = observer

            async def start(self):
                pass

            async def deploy(self, specs):
                placed = {
                    s.name: PlacedNode(s, "w0", NodeId("127.0.0.1", 1000 + i))
                    for i, s in enumerate(specs)
                }
                # every node but the first registers at the observer
                self.observer.observer.alive.update(
                    p.node_id for p in list(placed.values())[1:])
                missing.append(next(iter(placed)))
                return placed

            async def stop(self):
                stopped.append("controller")

        monkeypatch.setattr(observer_server, "ObserverServer", Observer)
        monkeypatch.setattr(controller_mod, "ClusterController", Controller)
        with pytest.raises(ClusterError, match="nodes alive at the observer") as excinfo:
            asyncio.run(_run_cluster(workers=1, total=2, size=64, timeout=0.2))
        assert f"missing {missing}" in str(excinfo.value)
        assert sorted(stopped) == ["controller", "observer"]
