"""Extension experiment — robustness under controlled failures (Section 3.1).

"Due to the transparent detection of link and node failures in iOverlay,
it is easy to design experiments consisting of a certain number of
failures, and evaluate the robustness ... by measuring the received
throughput at all participating clients."

We run an ns-aware dissemination session on the synthetic PlanetLab,
kill a series of interior relay nodes through the observer, and sample
every surviving receiver's throughput.  *Availability* at time t is the
fraction of surviving receivers at ≥ 50% of the nominal stream rate.
The ablation contrasts the full algorithm (orphans re-query and
re-attach) with a recovery-disabled variant — quantifying how much of
the resilience is the engine's detection and how much the algorithm's
reaction.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from repro.algorithms.forwarding import CopyForwardAlgorithm, SinkAlgorithm
from repro.algorithms.trees import CMD_JOIN, NodeStressAwareTree, TreeAlgorithm
from repro.core.algorithm import Disposition
from repro.core.ids import NodeId
from repro.core.message import Message
from repro.experiments.common import Table
from repro.testbed.planetlab import PlanetLabTestbed


class NoRecoveryTree(NodeStressAwareTree):
    """Ablation: orphans do *not* rejoin after losing their position."""

    def on_broken_link(self, msg: Message) -> object:
        fields = msg.fields()
        from repro.core.ids import NodeId

        peer = NodeId.parse(fields["peer"])
        if fields.get("direction") == "down":
            self.children = [node for node in self.children if node != peer]
        elif peer == self.parent:
            self.parent = None
            self.in_tree = False  # and stay out
        self.neighbor_stress.pop(peer, None)
        return None

    def on_broken_source(self, msg: Message) -> object:
        if not self.is_source:
            self.parent = None
            self.children.clear()
            self.in_tree = False  # and stay out
        return None


@dataclass
class RobustnessRun:
    recovery: bool
    availability: list[tuple[float, float]]  # (time, fraction served)
    final_availability: float
    killed: int

    def worst_dip(self) -> float:
        return min(frac for _, frac in self.availability) if self.availability else 0.0


@dataclass
class ExtRobustnessResult:
    runs: dict[str, RobustnessRun]

    def table(self) -> Table:
        table = Table(
            "Extension — availability under interior-node failures",
            ["variant", "worst availability", "final availability", "nodes killed"],
        )
        for name, run in self.runs.items():
            table.add_row(
                name,
                f"{run.worst_dip() * 100:.0f}%",
                f"{run.final_availability * 100:.0f}%",
                run.killed,
            )
        table.note("availability = surviving receivers at >= 50% of the nominal"
                   " rate; failures injected by the observer, detected passively")
        return table


def run_robustness(
    recovery: bool,
    n_nodes: int = 24,
    n_failures: int = 3,
    seed: int = 0,
    payload_size: int = 5000,
) -> RobustnessRun:
    algorithm_cls = NodeStressAwareTree if recovery else NoRecoveryTree
    algorithms: list[TreeAlgorithm] = []

    def factory(index: int, last_mile: float) -> TreeAlgorithm:
        algorithm = algorithm_cls(last_mile=last_mile, seed=seed * 131 + index)
        algorithms.append(algorithm)
        return algorithm

    testbed = PlanetLabTestbed(n_nodes, factory, seed=seed)
    net = testbed.net
    testbed.deploy()
    net.run(2)
    net.observer.deploy_source(testbed.source.node_id, app=1, payload_size=payload_size)
    net.run(2)
    for node in testbed.nodes[1:]:
        net.observer.send_control(node.node_id, CMD_JOIN, param1=1)
        net.run(0.5)
    net.run(20)

    source_alg = algorithms[0]
    nominal = statistics.median(
        alg.receive_rate() for alg in algorithms if not alg.is_source and alg.in_tree
    )

    # Kill the highest-degree interior relays, one every 20 seconds.
    interior = sorted(
        (alg for alg in algorithms if not alg.is_source and alg.children),
        key=lambda alg: -len(alg.children),
    )
    victims = [alg.node_id for alg in interior[:n_failures]]
    dead: set = set()
    availability: list[tuple[float, float]] = []

    def sample() -> None:
        survivors = [
            alg for alg in algorithms
            if not alg.is_source and alg.node_id not in dead
        ]
        served = sum(1 for alg in survivors if alg.receive_rate() >= 0.5 * nominal)
        availability.append((net.now, served / len(survivors) if survivors else 0.0))

    for victim in victims:
        net.observer.terminate_node(victim)
        dead.add(victim)
        for _ in range(4):
            net.run(5)
            sample()
    net.run(30)
    sample()

    return RobustnessRun(
        recovery=recovery,
        availability=availability,
        final_availability=availability[-1][1],
        killed=len(victims),
    )


def run_ext_robustness(seed: int = 0) -> ExtRobustnessResult:
    return ExtRobustnessResult(runs={
        "with recovery": run_robustness(True, seed=seed),
        "no recovery": run_robustness(False, seed=seed),
    })


# --------------------------------------------------------- detection parity
#
# The same declarative FailureSchedule drives the simulator (virtual
# time) and a chaos-wrapped asyncio cluster (real sockets, wall time).
# Both backends face an identical silent stall on one fan-out link and
# must converge to the same availability through the same detection
# ladder (traffic inactivity -> probe -> teardown), proving the live
# resilience layer is a faithful twin of the sim's stall handling.

#: seconds of silence before suspicion (both backends), and how long the
#: asyncio ladder waits for an unanswered probe before confirming death
PARITY_INACTIVITY = 0.25
PARITY_PROBE = 0.25
#: the schedule: one silent stall on the source's link to the first sink
PARITY_STALL_AT = 0.6
#: run time after arming — covers warm-up, the stall, and the full ladder
PARITY_HORIZON = 2.5
#: post-horizon window over which availability is measured
PARITY_WINDOW = 1.2
PARITY_SINKS = 3
PARITY_PAYLOAD = 2000


class _ParitySource(CopyForwardAlgorithm):
    """Copy-forward that abandons a downstream on *any* broken link.

    The sim reports directed teardowns ("down") while the asyncio engine
    reports the whole bidirectional peer ("both"); dropping the peer in
    either case gives both backends the same post-detection topology, so
    availability is comparable.
    """

    def on_broken_link(self, msg: Message) -> Disposition:
        self.remove_downstream(NodeId.parse(msg.fields()["peer"]))
        return Disposition.DONE


class _ParitySink(SinkAlgorithm):
    """Sink that records which upstreams were confirmed dead."""

    def __init__(self) -> None:
        super().__init__()
        self.broken_peers: list[str] = []

    def on_broken_link(self, msg: Message) -> Disposition:
        self.broken_peers.append(msg.fields()["peer"])
        return Disposition.DONE


@dataclass
class ParityRun:
    backend: str
    availability: float          # fraction of sinks still served, 0..1
    torn_down: bool              # source abandoned the stalled downstream
    detections: int              # sinks whose engine confirmed a dead upstream


@dataclass
class DetectionParityResult:
    runs: dict[str, ParityRun]

    def agrees(self) -> bool:
        values = list(self.runs.values())
        return all(
            run.torn_down == values[0].torn_down
            and run.detections == values[0].detections
            and abs(run.availability - values[0].availability) < 1e-9
            for run in values
        )

    def table(self) -> Table:
        table = Table(
            "Extension — stall-detection parity across backends",
            ["backend", "availability", "stalled link torn down", "detections"],
        )
        for name, run in self.runs.items():
            table.add_row(
                name,
                f"{run.availability * 100:.0f}%",
                "yes" if run.torn_down else "no",
                run.detections,
            )
        table.note("one FailureSchedule, two backends: a silent stall on one"
                   " fan-out link is confirmed via traffic inactivity on sim"
                   " and via the inactivity -> probe ladder on asyncio")
        return table


def _parity_schedule():
    from repro.sim.failure import FailureSchedule

    # Armed at t=0 on both backends, so the sim's absolute virtual times
    # and the cluster's arm-relative wall times coincide.
    return FailureSchedule().stall_link(PARITY_STALL_AT, "src", "sink0")


def _parity_run(backend: str, sinks: list[_ParitySink],
                src_alg: _ParitySource, stalled, served: list[bool]) -> ParityRun:
    return ParityRun(
        backend=backend,
        availability=sum(served) / len(served),
        torn_down=stalled not in src_alg.downstream_targets,
        detections=sum(1 for alg in sinks if alg.broken_peers),
    )


def _run_parity_sim(seed: int) -> ParityRun:
    from repro.sim.engine import EngineConfig
    from repro.sim.network import NetworkConfig, SimNetwork

    net = SimNetwork(NetworkConfig(
        seed=seed,
        engine=EngineConfig(inactivity_timeout=PARITY_INACTIVITY),
    ))
    src_alg = _ParitySource()
    sinks = [_ParitySink() for _ in range(PARITY_SINKS)]
    src = net.add_node(src_alg, name="src")
    sink_ids = [net.add_node(alg, name=f"sink{i}") for i, alg in enumerate(sinks)]
    src_alg.set_downstreams(sink_ids)
    net.start()
    _parity_schedule().arm(net)
    net.observer.deploy_source(src, app=1, payload_size=PARITY_PAYLOAD)
    net.run(PARITY_HORIZON)
    before = [alg.received for alg in sinks]
    net.run(PARITY_WINDOW)
    served = [alg.received > count + 5 for alg, count in zip(sinks, before)]
    return _parity_run("sim", sinks, src_alg, sink_ids[0], served)


def _run_parity_net(seed: int) -> ParityRun:
    import asyncio

    from repro.net.chaos import ChaosController
    from repro.net.engine import NetEngineConfig
    from repro.net.resilience import ResilienceConfig
    from repro.net.virtual import VirtualHost

    def config() -> NetEngineConfig:
        return NetEngineConfig(resilience=ResilienceConfig(
            seed=seed,
            inactivity_timeout=PARITY_INACTIVITY,
            probe_timeout=PARITY_PROBE,
        ))

    async def scenario() -> ParityRun:
        host = VirtualHost(chaos=ChaosController(seed=seed))
        src_alg = _ParitySource()
        sinks = [_ParitySink() for _ in range(PARITY_SINKS)]
        src = host.add_node(src_alg, "src", config())
        engines = [host.add_node(alg, f"sink{i}", config()) for i, alg in enumerate(sinks)]
        await host.start()
        src_alg.set_downstreams([engine.node_id for engine in engines])
        _parity_schedule().arm(host)
        src.start_source(app=1, payload_size=PARITY_PAYLOAD)
        await asyncio.sleep(PARITY_HORIZON)
        before = [alg.received for alg in sinks]
        await asyncio.sleep(PARITY_WINDOW)
        served = [alg.received > count + 5 for alg, count in zip(sinks, before)]
        run = _parity_run("asyncio+chaos", sinks, src_alg,
                          engines[0].node_id, served)
        await host.stop()
        return run

    return asyncio.run(scenario())


def run_detection_parity(seed: int = 0) -> DetectionParityResult:
    """One FailureSchedule, both backends; returns per-backend outcomes."""
    return DetectionParityResult(runs={
        "sim": _run_parity_sim(seed),
        "asyncio+chaos": _run_parity_net(seed),
    })


def main() -> None:
    run_ext_robustness().table().print()
    run_detection_parity().table().print()


if __name__ == "__main__":
    main()
