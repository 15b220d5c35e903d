"""The benchmark checks itself (not part of tier-1; takes about three minutes).

Run with ``python3 -m pytest bench/tests -q`` from the repo root.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from bench import catalogue  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
DOCUMENT = json.loads((ROOT / "BENCHMARK.json").read_text())


def driver_run(workload: str, seconds: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*DOCUMENT["command"], "--workload", workload, "--seed", "5",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180,
    )


def test_benchmark_json_is_the_catalogue_written_out():
    assert DOCUMENT == catalogue.benchmark_json()


def test_benchmark_json_meets_the_contract():
    assert set(DOCUMENT) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
    assert 1 <= len(DOCUMENT["command"]) <= 32 and all(len(p) <= 200 for p in DOCUMENT["command"])
    assert 1 <= len(DOCUMENT["paths"]) <= 16
    assert isinstance(DOCUMENT["run_seconds"], int) and 1 <= DOCUMENT["run_seconds"] <= 60
    assert 2 <= len(DOCUMENT["workloads"]) <= 8
    assert 1 <= len(DOCUMENT["end_to_end"]) <= 16
    assert 1 <= len(DOCUMENT["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in DOCUMENT[key]]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.match(name) for name in names)
    for workload in DOCUMENT["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in DOCUMENT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in DOCUMENT["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in DOCUMENT["end_to_end"] + DOCUMENT["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in DOCUMENT["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in DOCUMENT["end_to_end"])


@pytest.mark.parametrize("workload", catalogue.WORKLOAD_NAMES)
def test_every_end_to_end_metric_is_emitted_and_never_zero(workload):
    done = driver_run(workload, seconds=1, trace=0)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert {name: m["unit"] for name, m in line["metrics"].items()} == catalogue.END_TO_END_UNITS
    assert all(m["value"] > 0 for m in line["metrics"].values()), line["metrics"]


@pytest.mark.parametrize("workload", catalogue.WORKLOAD_NAMES)
def test_traced_run_emits_every_layer_metric_and_the_bypass_predictions_hold(workload):
    # ``correct`` covers the zero-call predictions: no net.framing /
    # core.message / net.shm calls on virtual_pack, no net.* on
    # sim_chain, transport_mix == {"shm"} and no TCP fallback on
    # cluster_pack, determinism of sim_chain across instances
    done = driver_run(workload, seconds=3, trace=1)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"] is True and line["failed"] == 0, done.stderr
    assert {name: m["unit"] for name, m in line["metrics"].items()} == catalogue.PER_LAYER_UNITS
    assert line["metrics"]["net.shm.tcp_fallbacks"]["value"] == 0
    trace_file = ROOT / "bench" / "results" / f"trace-{workload}.json"
    ledger = json.loads(trace_file.read_text())["ledger"]
    whole = ledger["attributed_us_per_msg_hop"] + ledger["unattributed_us_per_msg_hop"]
    assert whole == pytest.approx(ledger["cpu_us_per_msg_hop"])


def test_outside_a_checkout_the_command_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "trace-*.json"))
    done = driver_run("tcp_chain", seconds=1, trace=0, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
