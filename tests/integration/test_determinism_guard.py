"""Determinism guard: the same seed must yield byte-identical traces.

The kernel's fast paths (ready deque, cancellable timers, reused
rotation lists) are pure optimizations — they must not perturb event
order.  These tests run the fig5-style chain and the fig8 butterfly
twice with identical seeds and require the *serialized* observer traces
and metric snapshots to match byte for byte.  Any scheduling or
iteration-order change in the hot path fails here before it can
silently alter experiment results.

Determinism alone cannot see a *changed* schedule, only an unstable
one, so the two runs are also pinned to sha256 digests of their
serializations (the same under any ``PYTHONHASHSEED``, on Python 3.11
and 3.12).  A change meant to keep the schedule — such as replacing
the simulated links' per-link tasks with callbacks — must leave both
digests alone.  A change that alters the schedule on purpose updates
them in the same commit and says why.

One process has one hash seed, so none of the above can see an
iteration order that follows the salted ``str`` hash.  The Fig. 18
check runs a short experiment in two fresh interpreters under two
``PYTHONHASHSEED`` values and compares what they print.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from repro.algorithms.forwarding import CopyForwardAlgorithm, SinkAlgorithm
from repro.core.bandwidth import BandwidthSpec
from repro.experiments.common import KB
from repro.experiments.topologies import build_butterfly
from repro.sim.engine import EngineConfig
from repro.sim.network import NetworkConfig, SimNetwork
from repro.telemetry import Telemetry
from repro.telemetry.exporters import chrome_trace_events

FIG5_CHAIN_SEED7_SHA256 = "78374eb9048e9af8efab85fa71b936ddcba6f49b36a521c4b345a070e8e58152"
FIG8_BUTTERFLY_SEED3_SHA256 = "ddb9eb7d60cc6161897f2dc01de75a2630c45303d33413b6544eecafa942f8d9"

SRC = Path(__file__).resolve().parents[2] / "src"


def _serialize(telemetry: Telemetry) -> str:
    """Canonical byte form of a run: full message trace + metric values."""
    trace = chrome_trace_events(telemetry.tracer.events())
    return json.dumps(
        {"trace": trace, "metrics": telemetry.snapshot()}, sort_keys=True
    )


def _run_fig5_chain(seed: int) -> str:
    """An instrumented fig5-style copy chain under back pressure."""
    telemetry = Telemetry()
    net = SimNetwork(NetworkConfig(
        engine=EngineConfig(buffer_capacity=10),
        seed=seed,
        telemetry=telemetry,
    ))
    algorithms = [CopyForwardAlgorithm() for _ in range(4)] + [SinkAlgorithm()]
    ids = [
        net.add_node(
            algorithm,
            name=f"n{i}",
            bandwidth=BandwidthSpec(total=100 * KB) if i == 0 else None,
        )
        for i, algorithm in enumerate(algorithms)
    ]
    for upstream, downstream in zip(algorithms, ids[1:]):
        upstream.set_downstreams([downstream])
    net.start()
    net.observer.deploy_source(ids[0], app=1, payload_size=5000)
    net.run(4.0)
    return _serialize(telemetry)


def _run_fig8_butterfly(seed: int) -> str:
    """The instrumented Fig. 8 butterfly with network coding at D."""
    telemetry = Telemetry()
    deployment = build_butterfly(coding=True, seed=seed, telemetry=telemetry)
    net = deployment.net
    net.observer.deploy_source(deployment.nodes["A"], app=1, payload_size=5000)
    net.run(8.0)
    document = json.loads(_serialize(telemetry))
    document["rates"] = deployment.effective_rates()
    document["decoded"] = {
        "F": deployment.node_f.decoded_generations,
        "G": deployment.node_g.decoded_generations,
    }
    return json.dumps(document, sort_keys=True)


def test_fig5_chain_trace_is_deterministic():
    first = _run_fig5_chain(seed=7)
    second = _run_fig5_chain(seed=7)
    assert first == second
    assert json.loads(first)["trace"]  # guard is vacuous on an empty trace


def test_fig8_butterfly_trace_is_deterministic():
    first = _run_fig8_butterfly(seed=3)
    second = _run_fig8_butterfly(seed=3)
    assert first == second
    assert json.loads(first)["decoded"]["F"] > 0


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_fig5_chain_schedule_is_pinned():
    assert _sha256(_run_fig5_chain(seed=7)) == FIG5_CHAIN_SEED7_SHA256


def test_fig8_butterfly_schedule_is_pinned():
    assert _sha256(_run_fig8_butterfly(seed=3)) == FIG8_BUTTERFLY_SEED3_SHA256


def test_different_seeds_may_diverge_but_never_crash():
    # Sanity: the harness itself is sensitive enough to register runs
    # (not comparing constants); different seeds still complete cleanly.
    a = _run_fig5_chain(seed=1)
    b = _run_fig5_chain(seed=2)
    assert json.loads(a)["trace"] and json.loads(b)["trace"]


def _fig18_stdout(hash_seed: str) -> str:
    """A one-minute Fig. 18 run, printed by a fresh interpreter."""
    code = (
        "from repro.experiments.fig18_pernode_overhead import run_fig18\n"
        "run_fig18(duration=60.0).table().print()\n"
    )
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    )
    return done.stdout


def test_fig18_does_not_depend_on_the_hash_seed():
    """``str`` hashes are salted per process, so a set of NodeIds iterates
    in a different order under each ``PYTHONHASHSEED``; nothing an
    experiment prints may follow that order."""
    first = _fig18_stdout("0")
    assert "sAware" in first
    assert first == _fig18_stdout("1")


def _swim_point(hash_seed: str) -> str:
    """A slotted SWIM convergence run, reported by a fresh interpreter."""
    code = (
        "from repro.experiments.fig_churn_convergence import run_slotted_point\n"
        "p = run_slotted_point(n_nodes=300, topology='clusters', seed=1,\n"
        "                      churn=False, max_rounds=200)\n"
        "print(p.convergence_round, p.stats.packets)\n"
    )
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    )
    return done.stdout


def test_swim_view_sample_does_not_depend_on_the_hash_seed():
    """SWIM piggybacks a sample of its view on every packet; the sample
    must go out in pick order, not in the salted hash order of a set of
    NodeIds, or the same seed converges in a different round."""
    first = _swim_point("0")
    assert first.split()[0] != "None"  # the run converged
    assert first == _swim_point("1")
