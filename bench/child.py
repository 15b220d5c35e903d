"""One workload, one fresh process: run it, account for it, print one JSON line.

``python -m bench`` starts this module in a subprocess per workload, so
no run inherits another's heap, caches or patched functions.  With
``--trace 1`` the process first measures a short untraced reference
window, then installs the tracing wrappers and measures the traced
window; the difference between the two is ``telemetry.overhead_pct``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from repro.telemetry.instruments import QUEUE_WAIT_BUCKETS
from repro.telemetry.metrics import quantile_from_counts

from bench import algos, isolated, trace, workloads
from bench.catalogue import END_TO_END_UNITS, PER_LAYER_UNITS
from bench.measure import Stat, percentile, slice_values

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def merged_slices(sinks: list[dict]) -> dict[int, list]:
    """One slice table for all sinks: min count, latest arrival, all latencies."""
    if len(sinks) == 1:
        return sinks[0]["slices"]
    merged: dict[int, list] = {}
    for sec in set.intersection(*(set(sink["slices"]) for sink in sinks)):
        entries = [sink["slices"][sec] for sink in sinks]
        merged[sec] = [
            min(entry[0] for entry in entries),
            max(entry[1] for entry in entries),
            [lat for entry in entries for lat in entry[2]],
        ]
    return merged


def account(raw: dict) -> tuple[int, int, list[str]]:
    """``(attempted, failed, reasons)``: an operation is one source message.

    Each instance is closed, drained and then checked on its own.
    Failed = emitted but not delivered, plus CRC failures, plus (paced)
    messages later than the limit; every operation of an instance fails
    when a ``seq`` went missing, which a matching count alone would hide.
    """
    attempted = failed = 0
    reasons: list[str] = []
    for instance in raw["instances"]:
        emitted = instance["emitted"]
        worst = 0
        for sink in instance["sinks"]:
            lost = emitted - sink["received"]
            bad = lost + sink["crc_bad"] + sink["late"]
            if lost:
                reasons.append(f"{lost} of {emitted} emitted messages never arrived")
            if sink["crc_bad"]:
                reasons.append(f"{sink['crc_bad']} payloads failed the CRC")
            if sink["late"]:
                reasons.append(f"{sink['late']} messages were later than the limit")
            if not lost and (sink["max_seq"] != emitted - 1
                             or sink["seq_sum"] != emitted * (emitted - 1) // 2):
                reasons.append("seq continuity broken: duplicates stood in for missing messages")
                bad = emitted
            worst = max(worst, bad)
        attempted += emitted
        failed += min(max(worst, 0), emitted)
    return max(attempted, 1), failed, reasons


#: under an open loop the rate is the generator's and latency is
#: wake-up delay on a three-quarters-idle system: both stay as measured
#: (ten runs: raw p50 spread 4 %, restated 11 %); CPU cost is restated
OPEN_LOOP = {"paced_chain"}

#: Saturated, the cluster's chain holds ~3000 messages in rings and
#: buffers, and which of them are full wanders over seconds with the
#: balance between the two workers, in both directions: the emptiest
#: quartile of a run's slices is its least repeatable figure (24 runs:
#: first quartile 19 % spread, median 9 %), so latency is the median there
WANDERING_QUEUES = {"cluster_pack"}


def end_to_end(raw: dict, normalise: bool = True) -> dict[str, Stat]:
    """The end-to-end metrics, stated at the reference machine speed.

    Every one-second slice is scaled by how much slower than the
    reference the machine ran during it (``bench.measure.Calibrator``);
    ``normalise=False`` gives the figures as the wall clock saw them.
    The slices of all instances are pooled and the better quartile is
    reported (``Stat.undisturbed``); ``setup_s`` is a plain median.
    """
    hops = raw["hops"]
    pooled: dict[str, list[float]] = {"msgs_per_s": [], "latency_p50_ms": [], "latency_p95_ms": []}
    costs: list[float] = []
    setups: list[float] = []
    whole: list[float] = []
    delivered = 0
    for instance in raw["instances"]:
        slow = instance["slowdown"] if normalise else {}
        stats = slice_values(
            merged_slices(instance["sinks"]), instance["first"], instance["last"],
            {} if raw["workload"] in OPEN_LOOP else slow,
        )
        for key in pooled:
            pooled[key].extend(stats[key])
        whole.extend(stats["latencies_s"])
        ticks = instance["ticks"]
        for k, (a, b) in enumerate(zip(ticks, ticks[1:])):
            moved = (b.delivered - a.delivered) * hops
            if moved > 0:
                costs.append((b.cpu - a.cpu) * 1e6 / moved / slow.get(instance["first"] + k, 1.0))
        delivered += ticks[-1].delivered - ticks[0].delivered
        setups.append(instance["setup_time"] / (instance["setup_slowdown"] if normalise else 1.0))
    whole.sort()
    # In one process, later instances inherit the heap of earlier ones,
    # which ran for a time, not for a number of messages: only the first
    # instance's memory was read after a fixed amount of work.  Cluster
    # workers are new processes every time, so there every instance counts.
    rss = [instance["rss_mib"] for instance in raw["instances"]]
    if not raw["fresh_workers"]:
        del rss[1:]
    return {
        "setup_s": Stat.over(setups, "s"),
        "msgs_per_s": Stat.undisturbed(pooled["msgs_per_s"], "msg/s", "higher"),
        "latency_p50_ms": (
            Stat.over(pooled["latency_p50_ms"], "ms", n=len(whole))
            if raw["workload"] in WANDERING_QUEUES
            else Stat.undisturbed(pooled["latency_p50_ms"], "ms", "lower", n=len(whole))),
        "latency_p95_ms": Stat.undisturbed(pooled["latency_p95_ms"], "ms", "lower", n=len(whole)),
        "cpu_us_per_msg_hop": Stat.undisturbed(costs, "us", "lower", n=delivered),
        "peak_rss_mb": Stat.over(rss, "MiB"),
        # whole-window diagnostics ride along for the per-layer report:
        # one stall moves these, so they are never gates
        "latency_p99_ms": Stat(percentile(whole, 0.99) * 1e3, "ms", n=len(whole)),
        "latency_max_ms": Stat(whole[-1] * 1e3 if whole else 0.0, "ms", n=len(whole)),
    }


def _window_rate(instance: dict) -> float:
    """Messages per second over an instance's whole window (first sink)."""
    table, first, last = instance["sinks"][0]["slices"], instance["first"], instance["last"]
    if first - 1 not in table or last not in table:
        return 0.0
    count = sum(table[sec][0] for sec in range(first, last + 1) if sec in table)
    return count / (table[last][1] - table[first - 1][1])


def checks(raw: dict) -> dict[str, bool]:
    """Workload-specific predictions that must hold for the run to be correct."""
    name, instances = raw["workload"], raw["instances"]
    extras = [instance["extras"] for instance in instances]
    out: dict[str, bool] = {}
    if name == "virtual_pack":
        out["loopback_dials_is_39"] = all(e.get("loopback_dials") == 39 for e in extras)
    if name == "cluster_pack":
        out["transport_mix_is_shm"] = all(e.get("transport_is_shm") == 1.0 for e in extras)
        out["no_tcp_fallbacks"] = all(e.get("tcp_fallbacks") == 0 for e in extras)
    if name == "paced_chain":
        # the offered rate is a check, not a gate: whole window, +-1 %
        offered = workloads.PacedChain.rate
        out["delivered_rate_is_offered_rate"] = all(
            abs(_window_rate(instance) - offered) <= offered / 100 for instance in instances)
    if name == "sim_chain":
        out["deterministic_across_instances"] = all(
            i["exact"] == instances[0]["exact"] for i in instances)
    return out


def per_layer(raw: dict, reference: dict | None, e2e: dict[str, Stat]) -> tuple[dict[str, Stat], dict]:
    """Every per-layer metric of the catalogue, plus the cost ledger's parts."""
    name, hops = raw["workload"], raw["hops"]
    run = raw["instances"][0]  # a traced run measures one instance
    before, after = run["ticks"][0], run["ticks"][-1]
    spans = trace.delta(before.trace, after.trace)
    acc, counts = spans["acc"], spans["counts"]
    totals = trace.totals_delta(before.totals, after.totals)
    msgs = after.delivered - before.delivered
    msg_hops = msgs * hops or 1.0
    elapsed = after.at - before.at
    switched = totals.get("switched") or 1

    def span(key: str) -> list[float]:
        return acc.get(key, [0, 0.0, 0.0, 0])

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    values: dict[str, float] = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    values["core.message.fresh_packs_per_msg_hop"] = counts.get("core.message.fresh_packs", 0) / msg_hops
    values["core.switch.credit_epochs_per_msg"] = totals.get("epochs", 0) / switched
    values["core.engine_core.rounds_per_msg"] = totals.get("rounds", 0) / switched
    values["core.engine_core.msgs_per_round"] = ratio(totals.get("batch_sum", 0), totals.get("batch_count", 0))
    values["core.engine_core.round_self_us_per_msg"] = span("core.engine_core.switch_round")[2] * 1e6 / switched
    values["core.engine_core.defers_per_msg"] = totals.get("defers", 0) / switched
    values["core.engine_core.retries_per_msg"] = totals.get("retries", 0) / switched
    values["core.engine_core.credit_stalls_per_msg"] = totals.get("stalls", 0) / switched
    values["core.engine_core.control_msgs_per_s"] = counts.get("core.engine_core.control_msgs", 0) / elapsed
    process = span("core.algorithm.process")
    values["core.algorithm.process_us_per_msg"] = ratio(process[1] * 1e6, process[0])
    if sum(totals.get("wait_counts", [])):
        values["net.queues.wait_p50_us"] = quantile_from_counts(
            QUEUE_WAIT_BUCKETS, totals["wait_counts"], 0.5) * 1e6
    values["net.queues.recv_depth_mean"], values["net.queues.send_depth_mean"] = run["depths"]
    write, read = span("net.framing.write"), span("net.framing.read")
    values["net.framing.write_us_per_frame"] = ratio(write[2] * 1e6, write[3])
    values["net.framing.read_us_per_frame"] = ratio(read[1] * 1e6, read[0])
    values["net.framing.frames_per_write"] = ratio(write[3], write[0])
    send, drain = span("net.shm.send"), span("net.shm.drain")
    sweep, recv = span("net.shm.sweep"), span("net.shm.recv")
    values["net.shm.write_us_per_frame"] = ratio((send[1] + drain[1]) * 1e6, send[0])
    values["net.shm.frames_per_sweep"] = ratio(sweep[3] + recv[0], sweep[0])
    values["net.shm.doorbells_per_msg"] = counts.get("net.shm.doorbells", 0) / msg_hops
    values["net.shm.ring_full_waits"] = counts.get("net.shm.ring_full_waits", 0)
    values["net.shm.tcp_fallbacks"] = run["extras"].get("tcp_fallbacks", 0.0)
    values["net.engine.loop_callbacks_per_msg_hop"] = counts.get("net.engine.loop_callbacks", 0) / msg_hops
    values["net.engine.connect_s"] = run["extras"].get("connect_s", 0.0)
    values["net.engine.reordered_msgs"] = sum(sink["reordered"] for sink in run["sinks"])
    wall = end_to_end(raw, normalise=False)  # latency diagnostics stay as measured
    values["net.engine.latency_p95_ms"] = wall["latency_p95_ms"].value
    values["net.engine.latency_p99_ms"] = wall["latency_p99_ms"].value
    values["net.engine.latency_max_ms"] = wall["latency_max_ms"].value
    values["net.virtual.loopback_dials"] = run["extras"].get("loopback_dials", 0.0)
    loopback = span("net.virtual.send")
    values["net.virtual.send_us_per_msg"] = ratio(loopback[1] * 1e6, loopback[0])
    if name == "sim_chain":
        exact = run["exact"]
        values["sim.kernel.events_per_msg_hop"] = exact["events"] / (exact["delivered"] * hops)
        values["sim.kernel.timers_per_msg_hop"] = exact["timers"] / (exact["delivered"] * hops)
    if name == "cluster_pack":
        values["cluster.spawn_s"] = run["extras"]["spawn_s"]
        values["cluster.deploy_s"] = run["extras"]["deploy_s"]
        burned = [b - a for a, b in zip(before.worker_cpu, after.worker_cpu)]
        values["cluster.worker_cpu_skew"] = ratio(max(burned), min(burned))
        values["cluster.latency_p50_ms"] = wall["latency_p50_ms"].value
        values["cluster.latency_p99_ms"] = wall["latency_p99_ms"].value
        values["observer.ingress_bytes_per_s"] = (after.observer_bytes - before.observer_bytes) / elapsed
        values["observer.status_msgs_per_s"] = (after.observer_frames - before.observer_frames) / elapsed
    combine, decode = span("algorithms.coding.combine"), span("algorithms.coding.decode")
    values["algorithms.coding.combine_us_per_gen"] = ratio(combine[1] * 1e6, combine[0])
    values["algorithms.coding.decode_us_per_gen"] = ratio(decode[1] * 1e6, msgs / 2) if decode[0] else 0.0
    lags = run["gen_lags"]
    values["bench.gen_lag_p99_ms"] = percentile(lags, 0.99) * 1e3
    values["bench.gen_lag_max_ms"] = lags[-1] * 1e3 if lags else 0.0

    # telemetry.overhead_pct: traced against the untraced reference of
    # this same process (rate where the source saturates, CPU where the
    # rate is fixed by the generator)
    if reference is not None:
        ref = end_to_end(reference)
        if name in OPEN_LOOP:
            overhead = ratio(e2e["cpu_us_per_msg_hop"].value, ref["cpu_us_per_msg_hop"].value) - 1.0
        else:
            overhead = 1.0 - ratio(e2e["msgs_per_s"].value, ref["msgs_per_s"].value)
        values["telemetry.overhead_pct"] = overhead * 100.0

    # the ledger: every span's self time, per message-hop; what is left
    # of the traced CPU is the event loop, task switching and syscalls
    # (span times are wall-clock, so the whole is the CPU as measured,
    # not restated at the reference speed)
    traced_cpu = (after.cpu - before.cpu) * 1e6 / msg_hops
    parts = {key: entry[2] * 1e6 / msg_hops for key, entry in sorted(acc.items()) if entry[0]}
    attributed = sum(parts.values())
    values["ledger.unattributed_us_per_msg_hop"] = traced_cpu - attributed
    ledger = {
        "parts_us_per_msg_hop": parts,
        "attributed_us_per_msg_hop": attributed,
        "unattributed_us_per_msg_hop": traced_cpu - attributed,
        "cpu_us_per_msg_hop": traced_cpu,
        "unattributed_share": ratio(traced_cpu - attributed, traced_cpu),
        "calls": {key: entry[0] for key, entry in sorted(acc.items())},
        "counts": dict(sorted(counts.items())),
    }

    stats = {key: Stat(value, PER_LAYER_UNITS[key]) for key, value in values.items()}
    stats.update(isolated.run_all(PER_LAYER_UNITS))
    return stats, ledger


def bypass_checks(name: str, ledger: dict) -> dict[str, bool]:
    """The layers a workload must not execute (zero calls in the traced window)."""
    calls, counts = ledger["calls"], ledger["counts"]

    def silent(*prefixes: str) -> bool:
        return not any(calls.get(key, 0) for key in calls if key.startswith(prefixes)) and \
            not any(counts.get(key, 0) for key in counts if key.startswith(prefixes))

    out: dict[str, bool] = {}
    if name == "virtual_pack":
        out["no_framing_codec_or_shm_calls"] = silent("net.framing", "core.message", "net.shm")
    if name == "sim_chain":
        out["no_net_calls"] = silent("net.")
    if name != "cluster_pack":
        out["no_shm_calls"] = silent("net.shm")
    return out


def write_trace(name: str, ledger: dict) -> None:
    """The span sample this process kept, plus the ledger it sums to."""
    RESULTS_DIR.mkdir(exist_ok=True)
    spans = [
        {"name": n, "start": s, "end": e, "parent": p, "msg": m}
        for n, s, e, p, m in trace.REC.spans
    ]
    (RESULTS_DIR / f"trace-{name}.json").write_text(json.dumps({
        "workload": name,
        "note": "span sample of the bench process (workers keep their own accumulators); "
                "self time = span minus children",
        "ledger": ledger,
        "spans": spans,
    }))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.child")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)

    result: dict = {"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace}
    try:
        if args.trace:
            # untraced reference first: the wrappers, once installed, stay
            reference = workloads.run(
                args.workload, args.seed, [max(1, args.seconds // 3)], traced=False)
            trace.install(algos.ALL)
            raw = workloads.run(
                args.workload, args.seed, [max(1, args.seconds // 2)], traced=True)
        else:
            reference = None
            raw = workloads.run(
                args.workload, args.seed, workloads.split_window(args.seconds), traced=False)
        attempted, failed, reasons = account(raw)
        verdicts = checks(raw)
        e2e = end_to_end(raw)
        if args.trace:
            layer, ledger = per_layer(raw, reference, e2e)
            verdicts.update(bypass_checks(args.workload, ledger))
            write_trace(args.workload, ledger)
            metrics = {name: layer[name] for name in PER_LAYER_UNITS}
            result["ledger"] = ledger
        else:
            metrics = {name: e2e[name] for name in END_TO_END_UNITS}
            wall = end_to_end(raw, normalise=False)
            result["as_measured"] = {name: wall[name].as_json() for name in END_TO_END_UNITS}
            result["slowdown"] = statistics.median(
                slow for i in raw["instances"] for slow in i["slowdown"].values())
            # diagnostic: grows with the messages a run happened to handle
            result["peak_rss_whole_run_mb"] = max(i["rss_end_mib"] for i in raw["instances"])
        if "exact" in raw["instances"][0]:
            result["exact"] = raw["instances"][0]["exact"]
    except workloads.WorkloadFailure as failure:
        # the system broke: every operation of the run counts as failed
        print(json.dumps({**result, "correct": False, "attempted": 1, "failed": 1,
                          "reasons": [str(failure)], "checks": {}, "metrics": {}}))
        return 0
    reasons += [f"check failed: {key}" for key, ok in verdicts.items() if not ok]
    result.update(
        correct=not reasons, attempted=attempted, failed=failed, reasons=reasons,
        checks=verdicts, metrics={name: stat.as_json() for name, stat in metrics.items()},
        slices=sum(i["last"] - i["first"] + 1 for i in raw["instances"]),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
