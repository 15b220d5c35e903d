"""The ``ioverlay`` command line: run scenarios and paper experiments.

::

    ioverlay scenario path/to/scenario.json     # run a declarative scenario
    ioverlay experiment fig6                    # regenerate one paper figure
    ioverlay experiment --list                  # what can be regenerated
    ioverlay metrics --out telemetry/           # instrumented run + exports
    ioverlay virtualhost --nodes 150            # pack N nodes in one process
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from repro.tools.scenario import load_scenario, run_scenario

EXPERIMENTS: dict[str, str] = {
    "fig5": "repro.experiments.fig5_chain",
    "fig6": "repro.experiments.fig6_correctness",
    "fig7": "repro.experiments.fig7_large_buffers",
    "fig8": "repro.experiments.fig8_network_coding",
    "fig9": "repro.experiments.fig9_table3_trees",
    "table3": "repro.experiments.fig9_table3_trees",
    "fig11": "repro.experiments.fig11_planetlab_trees",
    "fig12": "repro.experiments.fig12_13_topologies",
    "fig13": "repro.experiments.fig12_13_topologies",
    "fig14": "repro.experiments.fig14_15_federation_small",
    "fig15": "repro.experiments.fig14_15_federation_small",
    "fig16": "repro.experiments.fig16_aware_over_time",
    "fig17": "repro.experiments.fig17_overhead_vs_size",
    "fig18": "repro.experiments.fig18_pernode_overhead",
    "fig19": "repro.experiments.fig19_bandwidth_vs_size",
    "underlay": "repro.experiments.ext_underlay_tree",
    "robustness": "repro.experiments.ext_robustness",
    "virtual-scaling": "repro.experiments.fig_virtual_scaling",
    "cluster-scaling": "repro.experiments.fig_cluster_scaling",
    "federation-scaling": "repro.experiments.fig_federation_scaling",
    "observer-scaling": "repro.experiments.fig_observer_scaling",
    "churn-convergence": "repro.experiments.fig_churn_convergence",
    "routing-throughput": "repro.experiments.fig_routing_throughput",
}


def _experiment_main(name: str) -> Callable[[], None]:
    import importlib

    module = importlib.import_module(EXPERIMENTS[name])
    return module.main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ioverlay",
        description="iOverlay reproduction: scenarios and paper experiments",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    scenario_parser = subparsers.add_parser(
        "scenario", help="run a declarative JSON scenario in the simulator"
    )
    scenario_parser.add_argument("path", help="path to the scenario JSON file")
    scenario_parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )

    experiment_parser = subparsers.add_parser(
        "experiment", help="regenerate one of the paper's tables/figures"
    )
    experiment_parser.add_argument(
        "name", nargs="?", help=f"one of: {', '.join(sorted(set(EXPERIMENTS)))}"
    )
    experiment_parser.add_argument(
        "--list", action="store_true", help="list available experiments"
    )
    experiment_parser.add_argument(
        "extra", nargs=argparse.REMAINDER,
        help="arguments after -- go to the experiment's own parser "
             "(e.g. ioverlay experiment federation-scaling -- --smoke)",
    )

    metrics_parser = subparsers.add_parser(
        "metrics",
        help="run an instrumented fig6-style simulation and export telemetry",
    )
    metrics_parser.add_argument(
        "--duration", type=float, default=20.0,
        help="total simulated seconds (default 20)",
    )
    metrics_parser.add_argument(
        "--out", default=".",
        help="directory for metrics.prom / metrics.json / trace.json",
    )
    metrics_parser.add_argument("--seed", type=int, default=0)

    vhost_parser = subparsers.add_parser(
        "virtualhost",
        help="pack N full nodes into this process on one event loop",
    )
    vhost_parser.add_argument(
        "--nodes", type=int, default=100,
        help="how many co-hosted nodes to pack into the chain (default 100)",
    )
    vhost_parser.add_argument(
        "--duration", type=float, default=3.0,
        help="wall-clock seconds to run the source (default 3)",
    )
    vhost_parser.add_argument(
        "--json", action="store_true", help="emit the packing stats as JSON"
    )

    cluster_parser = subparsers.add_parser(
        "cluster",
        help="shard N nodes over a fleet of worker processes",
    )
    cluster_parser.add_argument(
        "--workers", type=int, default=2,
        help="how many worker processes to spawn (default 2)",
    )
    cluster_parser.add_argument(
        "--nodes", type=int, default=20,
        help="total chain nodes sharded across the fleet (default 20)",
    )
    cluster_parser.add_argument(
        "--duration", type=float, default=3.0,
        help="wall-clock seconds to run the source (default 3)",
    )
    cluster_parser.add_argument(
        "--placement", default="round-robin",
        choices=("round-robin", "bin-pack"),
        help="placement policy for unpinned nodes (default round-robin)",
    )
    cluster_parser.add_argument(
        "--fanout", type=int, default=0,
        help="wire worker observer proxies into an aggregation tree with "
             "this fan-out (default 0 = flat funnel)",
    )
    cluster_parser.add_argument(
        "--flush-interval", type=float, default=None,
        help="aggregation flush period in seconds (tree mode; default 0.5 "
             "when --fanout is set)",
    )
    cluster_parser.add_argument(
        "--telemetry", action="store_true",
        help="enable worker telemetry so roll-ups carry metrics and traces",
    )
    cluster_parser.add_argument(
        "--shm-ring-bytes", type=int, default=1 << 20, metavar="BYTES",
        help="per-direction shared-memory ring size for cross-worker "
             "links (default 1 MiB; 0 forces plain TCP)",
    )
    cluster_parser.add_argument(
        "--json", action="store_true", help="emit the cluster stats as JSON"
    )
    federation = cluster_parser.add_argument_group(
        "federation",
        "run a root/child controller tree instead of a flat fleet",
    )
    federation.add_argument(
        "--root", action="store_true",
        help="federate: run a root controller that places nodes across "
             "child controllers (--workers becomes workers per child)",
    )
    federation.add_argument(
        "--children", type=int, default=2,
        help="child controllers the root spawns locally (default 2)",
    )
    federation.add_argument(
        "--expect", type=int, default=0, metavar="N",
        help="additionally wait for N external --join controllers "
             "before deploying (root mode)",
    )
    federation.add_argument(
        "--join", metavar="IP:PORT", default=None,
        help="run as a child controller daemon joining a remote root's "
             "bootstrap endpoint (serves placements until signalled)",
    )
    federation.add_argument(
        "--name", default="c0",
        help="this controller's name in the tree (join mode; default c0)",
    )
    federation.add_argument(
        "--capacity", type=float, default=0.0,
        help="declared node-weight capacity for stage-one placement "
             "(join mode; 0 = unbounded)",
    )
    federation.add_argument(
        "--weight", type=float, default=1.0,
        help="declared share for weighted stage-one placement (join mode)",
    )

    trace_parser = subparsers.add_parser(
        "trace",
        help="query a live observer for one message's stitched causal path",
    )
    trace_parser.add_argument(
        "trace_id", help="deterministic message id (sender/app#seq)"
    )
    trace_parser.add_argument(
        "--observer", required=True, metavar="IP:PORT",
        help="root observer endpoint to query",
    )
    trace_parser.add_argument(
        "--json", action="store_true", help="emit the raw flow report as JSON"
    )

    observe_parser = subparsers.add_parser(
        "observe",
        help="run a standalone observer daemon until SIGTERM/SIGINT",
    )
    observe_parser.add_argument("--ip", default="127.0.0.1")
    observe_parser.add_argument(
        "--port", type=int, default=0,
        help="listen port (default 0 = ephemeral, printed on startup)",
    )
    observe_parser.add_argument(
        "--duration", type=float, default=None,
        help="exit after this many seconds instead of waiting for a signal",
    )
    observe_parser.add_argument(
        "--json", action="store_true", help="emit the final summary as JSON"
    )

    args = parser.parse_args(argv)

    if args.command == "scenario":
        report = run_scenario(load_scenario(args.path))
        if args.json:
            print(report.to_json())
        else:
            print(f"simulated {report.duration:.1f}s; alive nodes: {', '.join(report.alive)}")
            for link, rate in sorted(report.link_rates.items()):
                print(f"  {link}: {rate / 1000:.1f} KB/s")
            for name, count in sorted(report.received.items()):
                if count:
                    print(f"  {name} received {count} messages")
        return 0

    if args.command == "experiment":
        if args.list or not args.name:
            for name in sorted(set(EXPERIMENTS)):
                print(name)
            return 0
        if args.name not in EXPERIMENTS:
            print(f"unknown experiment {args.name!r}; try --list", file=sys.stderr)
            return 2
        extra = [arg for arg in args.extra if arg != "--"]
        if extra:
            _experiment_main(args.name)(extra)
        else:
            _experiment_main(args.name)()
        return 0

    if args.command == "metrics":
        from repro.tools.metrics_cmd import run_metrics

        run_metrics(
            duration=args.duration,
            out_dir=args.out,
            seed=args.seed,
        )
        return 0

    if args.command == "virtualhost":
        from repro.tools.virtualhost_cmd import run_virtualhost

        return run_virtualhost(
            nodes=args.nodes,
            duration=args.duration,
            as_json=args.json,
        )

    if args.command == "cluster":
        if args.join:
            from repro.tools.federation_cmd import run_federation_join

            return run_federation_join(
                join=args.join,
                name=args.name,
                workers=args.workers,
                placement=args.placement,
                capacity=args.capacity,
                weight=args.weight,
                flush_interval=args.flush_interval,
                telemetry=args.telemetry,
                shm_ring_bytes=args.shm_ring_bytes,
            )
        if args.root:
            from repro.tools.federation_cmd import run_federation_root

            return run_federation_root(
                children=args.children,
                workers_per_child=args.workers,
                expect=args.expect,
                nodes=args.nodes,
                duration=args.duration,
                child_placement=args.placement,
                flush_interval=args.flush_interval,
                telemetry=args.telemetry,
                shm_ring_bytes=args.shm_ring_bytes,
                as_json=args.json,
            )
        from repro.tools.cluster_cmd import run_cluster

        return run_cluster(
            workers=args.workers,
            nodes=args.nodes,
            duration=args.duration,
            placement=args.placement,
            fanout=args.fanout,
            flush_interval=args.flush_interval,
            telemetry=args.telemetry,
            shm_ring_bytes=args.shm_ring_bytes,
            as_json=args.json,
        )

    if args.command == "trace":
        from repro.tools.trace_cmd import run_trace

        return run_trace(
            trace_id=args.trace_id,
            observer=args.observer,
            as_json=args.json,
        )

    if args.command == "observe":
        from repro.tools.observe_cmd import run_observe

        return run_observe(
            ip=args.ip,
            port=args.port,
            duration=args.duration,
            as_json=args.json,
        )

    return 2  # pragma: no cover - argparse enforces the subcommands


if __name__ == "__main__":
    raise SystemExit(main())
