"""The benchmark's names: workloads, end-to-end metrics, per-layer metrics.

``BENCHMARK.json`` at the repo root is :func:`benchmark_json` written
out; ``bench/tests`` checks the two stay equal.  The layers are this
repo's modules, and the metric names are the names later issues cite.
"""

from __future__ import annotations

import json
from pathlib import Path

#: how long one run measures (seconds); the driver passes it back as --seconds
RUN_SECONDS = 12

COMMAND = ["python3", "-m", "bench"]
PATHS = ["bench"]

#: (name, loop, why)
WORKLOADS = [
    ("tcp_chain", "closed",
     "Paper Fig. 5: 8 engines over loopback TCP, 5000-B payloads, saturated; "
     "net.framing, core.message unpack and the asyncio streams do most of the work."),
    ("paced_chain", "open, 250 msg/s",
     "Same chain under an open loop at 250 msg/s: nothing batches, queues stay empty, "
     "cost is wakeups per message; shows the latency and idle-CPU price of batching."),
    ("virtual_pack", "closed",
     "40 engines on one VirtualHost, 64-B payloads by reference: engine_core, switch and "
     "queues do all the work; framing, codec and shm do none, so a transport gain must not move it."),
    ("cluster_pack", "closed",
     "16-node chain over a 2-worker fleet, every hop crosses a process on shm rings: "
     "the only workload where net.shm, cluster and the observer proxies run."),
    ("coded_butterfly", "closed",
     "Fig. 8 butterfly, k=2: 2-upstream DRR, HOLD, fan-out retries and a fresh Message per coded "
     "output, so the relay cached-frame path never applies; algorithms.coding does real work."),
    ("sim_chain", "time-boxed simulation",
     "8-node chain on the discrete-event simulator: sim.kernel and sim.sync do the work and "
     "net.* none; deterministic, so event counts per message-hop repeat exactly."),
]

#: (name, unit, better, bound, definition).  Rates, latencies and CPU
#: cost are stated at the reference machine speed and as the better
#: quartile over one-second slices (bench/README.md, "Noise"): this
#: box's cores change speed by up to 2x over seconds.  Even so, ten runs
#: of identical code spread by 3-15 % (first to third quartile over
#: median), so the timing bounds are 25 %, the widest the contract
#: allows; the 10 % the issue asked for would fail on identical code.
#: ``ops_failed_ratio`` is the result line's failed / attempted (a
#: metric that is 0 at seed cannot carry a relative bound), and
#: ``latency_p95_ms`` is the per-layer ``net.engine.latency_p95_ms``:
#: its spread on paced_chain was 38 %.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25,
     "launch of the workload to the first verified message at the sink; median of 3 set-ups"),
    ("msgs_per_s", "msg/s", "higher", 0.25,
     "verified messages delivered at the sink per wall second; third quartile over one-second slices "
     "(coded_butterfly: originals decoded, min over the two receivers; paced_chain: equals the offered rate)"),
    ("latency_p50_ms", "ms", "lower", 0.25,
     "source stamp (due time on paced_chain) to sink arrival; first quartile over slices of the slice median "
     "(cluster_pack, whose queue occupancy wanders both ways: the median over slices)"),
    ("cpu_us_per_msg_hop", "us", "lower", 0.25,
     "user+sys CPU of every process of the system during a slice / (messages delivered x overlay hops); "
     "first quartile over slices"),
    ("peak_rss_mb", "MiB", "lower", 0.15,
     "peak resident set (VmHWM) summed over the workload's processes, read when the first instance's "
     "sink holds a fixed number of messages: at a fixed amount of work, not at a fixed time "
     "(cluster_pack starts new workers per instance: median of the three)"),
]

#: (name, unit, better, kind, moves) - kind "t" comes from the traced
#: window, "i" from an isolated call of the layer's public function
PER_LAYER = [
    ("core.message.pack_us", "us", "lower", "i", "msgs_per_s on coded_butterfly"),
    ("core.message.unpack_us", "us", "lower", "i", "msgs_per_s on tcp_chain, cluster_pack"),
    ("core.message.fresh_packs_per_msg_hop", "ratio", "lower", "t",
     "~0 on chain relays, ~1 on coded_butterfly; nothing on virtual_pack, sim_chain"),
    ("core.switch.pass_us", "us", "lower", "i", "cpu_us_per_msg_hop everywhere, most on virtual_pack"),
    ("core.switch.credit_epochs_per_msg", "ratio", "lower", "t", "coded_butterfly (2-port DRR)"),
    ("core.engine_core.rounds_per_msg", "ratio", "lower", "t",
     "msgs_per_s + cpu_us_per_msg_hop on virtual_pack, sim_chain, tcp_chain; cpu + latency_p50_ms on paced_chain"),
    ("core.engine_core.msgs_per_round", "ratio", "higher", "t", "as rounds_per_msg"),
    ("core.engine_core.round_self_us_per_msg", "us", "lower", "t", "cpu_us_per_msg_hop everywhere"),
    ("core.engine_core.defers_per_msg", "ratio", "lower", "t", "coded_butterfly"),
    ("core.engine_core.retries_per_msg", "ratio", "lower", "t", "coded_butterfly"),
    ("core.engine_core.credit_stalls_per_msg", "ratio", "lower", "t", "coded_butterfly"),
    ("core.engine_core.control_msgs_per_s", "1/s", "lower", "t", "cpu_us_per_msg_hop on paced_chain"),
    ("core.algorithm.process_us_per_msg", "us", "lower", "t",
     "msgs_per_s on coded_butterfly (dominant there); small and constant on the chains"),
    ("net.queues.wait_p50_us", "us", "lower", "t", "latency_p50_ms on tcp_chain, virtual_pack"),
    ("net.queues.recv_depth_mean", "count", "lower", "t", "latency_p50_ms (Little: latency ~ depth / rate)"),
    ("net.queues.send_depth_mean", "count", "lower", "t", "latency_p50_ms; ~0 on paced_chain"),
    ("net.framing.write_us_per_frame", "us", "lower", "t", "msgs_per_s on tcp_chain, coded_butterfly"),
    ("net.framing.read_us_per_frame", "us", "lower", "t", "msgs_per_s on tcp_chain, coded_butterfly"),
    ("net.framing.frames_per_write", "ratio", "higher", "t",
     "msgs_per_s on tcp_chain; ~1 and latency_p50_ms on paced_chain; zero calls on virtual_pack, sim_chain"),
    ("net.framing.pack_headers_us_per_frame", "us", "lower", "i", "msgs_per_s on coded_butterfly"),
    ("net.shm.write_us_per_frame", "us", "lower", "t", "msgs_per_s on cluster_pack only"),
    ("net.shm.frames_per_sweep", "ratio", "higher", "t", "msgs_per_s on cluster_pack only"),
    ("net.shm.doorbells_per_msg", "ratio", "lower", "t", "cpu_us_per_msg_hop on cluster_pack only"),
    ("net.shm.ring_full_waits", "count", "lower", "t", "msgs_per_s on cluster_pack only"),
    ("net.shm.tcp_fallbacks", "count", "lower", "t", "must be 0: cluster_pack is defined on rings"),
    ("net.shm.ring_frames_per_s", "1/s", "higher", "i", "msgs_per_s on cluster_pack only"),
    ("net.engine.loop_callbacks_per_msg_hop", "ratio", "lower", "t",
     "cpu_us_per_msg_hop on paced_chain; msgs_per_s on tcp_chain, virtual_pack"),
    ("net.engine.connect_s", "s", "lower", "t", "setup_s"),
    ("net.engine.reordered_msgs", "count", "lower", "t",
     "start-up dial race on cluster_pack: counted for a later correctness issue"),
    ("net.engine.latency_p95_ms", "ms", "lower", "t",
     "median over slices of the slice p95; too unsteady to gate (38 % spread on paced_chain)"),
    ("net.engine.latency_p99_ms", "ms", "lower", "t", "whole-window diagnostic; one stall moves it"),
    ("net.engine.latency_max_ms", "ms", "lower", "t", "whole-window diagnostic"),
    ("net.virtual.loopback_dials", "count", "higher", "t", "must be 39 on virtual_pack: no socket fallback"),
    ("net.virtual.send_us_per_msg", "us", "lower", "t", "msgs_per_s on virtual_pack only"),
    ("sim.kernel.events_per_msg_hop", "ratio", "lower", "t", "msgs_per_s on sim_chain only; exact"),
    ("sim.kernel.timers_per_msg_hop", "ratio", "lower", "t", "msgs_per_s on sim_chain only; exact"),
    ("sim.kernel.ready_events_per_s", "1/s", "higher", "i", "msgs_per_s on sim_chain only"),
    ("sim.kernel.timer_events_per_s", "1/s", "higher", "i", "msgs_per_s on sim_chain only"),
    ("sim.sync.queue_roundtrips_per_s", "1/s", "higher", "i", "msgs_per_s on sim_chain only"),
    ("cluster.spawn_s", "s", "lower", "t", "setup_s on cluster_pack"),
    ("cluster.deploy_s", "s", "lower", "t", "setup_s on cluster_pack"),
    ("cluster.worker_cpu_skew", "ratio", "lower", "t", "msgs_per_s on cluster_pack"),
    ("cluster.latency_p50_ms", "ms", "lower", "t", "saturated source-to-sink latency on cluster_pack"),
    ("cluster.latency_p99_ms", "ms", "lower", "t", "saturated source-to-sink tail on cluster_pack"),
    ("observer.ingress_bytes_per_s", "B/s", "lower", "t", "cpu_us_per_msg_hop on cluster_pack"),
    ("observer.status_msgs_per_s", "1/s", "lower", "t", "cpu_us_per_msg_hop on cluster_pack"),
    ("telemetry.overhead_pct", "%", "lower", "t", "the tracing overhead itself, per workload"),
    ("algorithms.coding.combine_us_per_gen", "us", "lower", "t", "msgs_per_s on coded_butterfly only"),
    ("algorithms.coding.decode_us_per_gen", "us", "lower", "t", "msgs_per_s on coded_butterfly only"),
    ("algorithms.coding.coded_MBps", "MB/s", "higher", "i", "msgs_per_s on coded_butterfly only"),
    ("algorithms.routing.rounds_per_s", "1/s", "higher", "i", "no workload here runs it: moves nothing"),
    ("membership.slotted.node_rounds_per_s", "1/s", "higher", "i", "no workload here runs it: moves nothing"),
    ("membership.slotted.convergence_round", "count", "lower", "i", "exact count; no workload runs it"),
    ("ledger.unattributed_us_per_msg_hop", "us", "lower", "t",
     "traced cpu_us_per_msg_hop minus every attributed self time: event loop, task switching, syscalls"),
    ("bench.gen_lag_p99_ms", "ms", "lower", "t", "paced_chain: a late generator explains a latency outlier"),
    ("bench.gen_lag_max_ms", "ms", "lower", "t", "paced_chain: never a product regression"),
]

WORKLOAD_NAMES = [name for name, _, _ in WORKLOADS]
END_TO_END_UNITS = {name: unit for name, unit, *_ in END_TO_END}
PER_LAYER_UNITS = {name: unit for name, unit, *_ in PER_LAYER}


def benchmark_json() -> dict:
    """The document the driver reads, with exactly the keys it expects."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, _, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound, _ in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, _, _ in PER_LAYER
        ],
    }


if __name__ == "__main__":
    target = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
    target.write_text(json.dumps(benchmark_json(), indent=2) + "\n")
    print(f"wrote {target}")
