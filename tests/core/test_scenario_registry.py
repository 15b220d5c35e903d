"""The scenario runner's algorithm registry (``repro.tools.scenario.ALGORITHMS``)."""

import pytest


def test_all_registered_scenario_algorithms_instantiate():
    from repro.tools.scenario import ALGORITHMS
    from repro.core.algorithm import Algorithm

    for name, factory in ALGORITHMS.items():
        instance = factory({"seed": 1})
        assert isinstance(instance, Algorithm), name


def test_registered_tree_factories_accept_last_mile():
    from repro.tools.scenario import ALGORITHMS

    tree = ALGORITHMS["tree_ns_aware"]({"last_mile": 123_000.0})
    assert tree.last_mile == pytest.approx(123_000.0)
