"""The SWIM adapter as a live algorithm on the simulation backend."""

from __future__ import annotations

import pytest

from repro.membership.protocol import DEAD, LEFT, SwimConfig
from repro.membership.swim import SwimMembershipAlgorithm
from repro.sim.network import NetworkConfig, SimNetwork
from repro.telemetry import Telemetry


def build_swim_net(n: int, telemetry: Telemetry | None = None, **cfg):
    net = SimNetwork(NetworkConfig(seed=1, telemetry=telemetry))
    algorithms = [
        SwimMembershipAlgorithm(SwimConfig(**cfg), seed=i) for i in range(n)
    ]
    for i, algorithm in enumerate(algorithms):
        net.add_node(algorithm, name=f"s{i}")
    net.start()
    return net, algorithms


def test_views_converge_to_full_membership():
    net, algorithms = build_swim_net(6)
    net.run(12)  # bootstrap + a dozen protocol periods
    ids = {alg.node_id for alg in algorithms}
    for alg in algorithms:
        others = ids - {alg.node_id}
        assert set(alg.core.alive_members()) == others
        assert others <= set(alg.known_hosts)


def test_crash_is_detected_and_pruned_from_known_hosts():
    net, algorithms = build_swim_net(6)
    net.run(10)
    victim = algorithms[0].node_id
    net.kill_node("s0")
    net.run(15)  # probe -> suspect -> dead -> rumour spread
    for alg in algorithms[1:]:
        assert alg.core.state_of(victim) == DEAD
        assert victim not in alg.known_hosts
        assert not alg.core.is_alive(victim)


def test_graceful_leave_gossips_left_immediately():
    net, algorithms = build_swim_net(6)
    net.run(10)
    victim = algorithms[2].node_id
    net.leave_node("s2")
    # A LEFT rumour needs only dissemination, not a suspicion timeout:
    # well under the ~suspicion_mult periods a crash detection takes.
    net.run(4)
    for alg in algorithms:
        if alg.node_id == victim:
            continue
        assert alg.core.state_of(victim) == LEFT
        assert victim not in alg.known_hosts


def test_membership_telemetry_counters_recorded():
    tel = Telemetry()
    net, algorithms = build_swim_net(5, telemetry=tel)
    net.run(10)
    net.kill_node("s0")
    net.run(15)
    events = tel.registry.get("ioverlay_membership_events_total")
    assert events is not None
    by_kind = {labels["kind"]: child.value for labels, child in events.series()}
    assert by_kind.get("joins", 0) > 0
    assert by_kind.get("deaths", 0) > 0
    packets = tel.registry.get("ioverlay_membership_packets_total")
    by_kind = {labels["kind"]: child.value for labels, child in packets.series()}
    assert by_kind.get("pings", 0) > 0
    assert by_kind.get("acks", 0) > 0


def test_broken_link_fast_paths_suspicion():
    net, algorithms = build_swim_net(4)
    net.run(10)
    victim = algorithms[3].node_id
    net.kill_node("s3")
    # Fail-fast via BROKEN_LINK plus the probe cycle: detection must not
    # need more than a couple of suspicion windows.
    net.run(3.0 * SwimConfig().suspicion_mult * SwimConfig().period)
    assert all(
        not alg.core.is_alive(victim) for alg in algorithms[:3]
    )
