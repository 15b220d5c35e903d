"""``ioverlay metrics`` — an instrumented fig6-style run with exports.

Runs the seven-node copy-forwarding deployment (Figs. 6/7) under the
discrete-event simulator with the telemetry layer enabled, exercises the
interesting engine paths (steady state, runtime bandwidth reduction with
its back-pressure retries, and a node termination with its drops), and
writes every exporter's output:

- ``metrics.prom``  — cluster-wide Prometheus text exposition, produced
  by the *observer's* aggregate of per-node snapshots (the same merge a
  live deployment performs over STATUS reports);
- ``metrics.json``  — the raw registry snapshot (interchange format);
- ``trace.json``    — Chrome trace-event JSON of every recorded
  lifecycle event (open in ``chrome://tracing`` or Perfetto).

It also prints the observer's metrics panel and reconstructs one data
message's path from source to sink out of the trace, demonstrating the
end-to-end lifecycle record.
"""

from __future__ import annotations

import os

from repro.experiments.common import KB
from repro.experiments.topologies import build_seven_node_copy
from repro.observer.dashboard import render_metrics
from repro.telemetry import Telemetry
from repro.telemetry.exporters import dump_chrome_trace, to_json, write_prometheus
from repro.telemetry.tracing import EventType


def route_to_sink(events) -> list[str]:
    """One source→sink route of a (possibly multicast) message.

    Copy-forwarding duplicates a message down several branches, so the
    time-sorted node list interleaves branches; instead walk the FORWARD
    edges from the emitting node to a node that recorded DELIVER and
    return the longest such route.
    """
    edges: dict[str, list[str]] = {}
    for event in events:
        if event.event == EventType.FORWARD and "peer" in event.detail:
            edges.setdefault(event.node, []).append(event.detail["peer"])
    source = next(
        (e.node for e in events if e.event == EventType.SOURCE_EMIT),
        events[0].node if events else None,
    )
    if source is None:
        return []
    sinks = {e.node for e in events if e.event == EventType.DELIVER}
    best: list[str] = [source]

    def walk(node: str, route: list[str]) -> None:
        nonlocal best
        if node in sinks and len(route) > len(best):
            best = list(route)
        for nxt in edges.get(node, []):
            if nxt not in route:  # a message never loops in these trees
                route.append(nxt)
                walk(nxt, route)
                route.pop()

    walk(source, [source])
    return best


def pick_showcase_trace(telemetry: Telemetry) -> str | None:
    """A trace id that traveled far: prefer delivered, then longest route."""
    best: str | None = None
    best_score = (-1, -1)
    for tid in telemetry.tracer.trace_ids():
        events = telemetry.tracer.events_for(tid)
        delivered = any(e.event == EventType.DELIVER for e in events)
        score = (1 if delivered else 0, len(route_to_sink(events)))
        if score > best_score:
            best, best_score = tid, score
    return best


def run_metrics(
    duration: float = 20.0,
    out_dir: str = ".",
    payload_size: int = 5000,
    seed: int = 0,
    echo=print,
) -> dict[str, str]:
    """Run the instrumented deployment and write all exports.

    Returns the paths written, keyed by export kind.
    """
    telemetry = Telemetry()
    deployment = build_seven_node_copy(seed=seed, telemetry=telemetry)
    net = deployment.net
    nodes = deployment.nodes

    # Phase 1: steady state — switch rounds, enqueues, forwards.
    net.observer.deploy_source(nodes["A"], app=1, payload_size=payload_size)
    net.run(duration / 2)
    # Phase 2: choke D's uplink — back pressure, defers, retries.
    net.observer.set_node_bandwidth(nodes["D"], "up", 30 * KB)
    net.run(duration / 4)
    # Phase 3: terminate B — broken links, drops, domino teardown.
    net.observer.terminate_node(nodes["B"])
    net.run(duration / 4)
    # Let the observer pull one more round of snapshots before exporting.
    net.observer.poll_all()
    net.run(1.0)

    os.makedirs(out_dir, exist_ok=True)
    prom_path = os.path.join(out_dir, "metrics.prom")
    json_path = os.path.join(out_dir, "metrics.json")
    trace_path = os.path.join(out_dir, "trace.json")
    paths = {"prometheus": prom_path, "json": json_path, "chrome": trace_path}
    write_prometheus(net.observer.cluster_metrics(), prom_path)
    with open(json_path, "w", encoding="utf-8") as handle:
        handle.write(to_json(telemetry.snapshot()))
    dump_chrome_trace(telemetry.tracer.events(), trace_path)

    echo(f"simulated {net.now:.1f}s on the seven-node copy topology")
    echo("")
    echo("== cluster metrics (observer aggregate) ==")
    echo(render_metrics(net.observer))
    echo("")
    echo(f"recorded {telemetry.tracer.recorded} lifecycle events "
         f"({telemetry.tracer.dropped} rotated out of the ring)")
    showcase = pick_showcase_trace(telemetry)
    if showcase is not None:
        label = {str(node): name for name, node in nodes.items()}
        route = route_to_sink(telemetry.tracer.events_for(showcase))
        hops = [label.get(n, n) for n in route]
        echo(f"message {showcase} path: {' -> '.join(hops)}")
    echo("")
    for kind, path in paths.items():
        echo(f"wrote {kind}: {path}")
    return paths
