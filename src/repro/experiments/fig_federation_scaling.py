"""Federated control plane — root/child controller tree vs one process.

:mod:`repro.experiments.fig_cluster_scaling` measured a flat worker
fleet; this experiment exercises the layer above it: a root controller
placing nodes across child controllers (stage one) that place them
across their own workers (stage two).  The acceptance bar stays byte
identity — the same bar the flat cluster holds — now across TWO
process boundaries in the control plane:

1. **Identity** — a 64-node forwarding chain and the Fig. 8
   network-coding butterfly each run across root + 2 child controllers
   (2 workers per child) and must produce exactly the digests a
   single-process :class:`~repro.net.virtual.VirtualHost` run produces.

2. **Recovery** — for each seed, a chain is deployed across the tree,
   one child controller is SIGKILLed, and the experiment asserts the
   third detection tier fired: exactly the dead controller's shard is
   re-placed through the root policy onto the survivors (fresh node
   ids, ``running`` nodes), the survivors keep their identities, and
   the full telemetry audit holds (``ioverlay_cluster_controllers``
   gauge, dead/shard-redeploy counters, ``CONTROLLER_DEAD`` /
   ``SHARD_REDEPLOYED`` trace events).  To show the recovered tree is
   still a working federation, a fresh chain is then deployed across
   it and must match the single-process digest byte for byte.

``--smoke`` shrinks the workload for CI; ``--seeds`` repeats the
recovery phase with seed-derived burst parameters.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import time
from dataclasses import dataclass

from repro.cluster.federation import RootConfig, RootController
from repro.cluster.scenarios import (
    BURST_CONTROL,
    build_local,
    burst_control_message,
    butterfly_specs,
    chain_specs,
    poll_info,
    wait_until,
)
from repro.core.ids import NodeId
from repro.experiments.common import Table
from repro.net.observer_server import ObserverServer
from repro.telemetry import Telemetry
from repro.telemetry.tracing import EventType

CHAIN_LEN = 64
SMOKE_CHAIN_LEN = 16
RECOVERY_CHAIN_LEN = 8
BUTTERFLY_COUNT = 20


@dataclass
class IdentityPoint:
    topology: str
    nodes: int
    controllers: int
    workers: int
    identical: bool
    elapsed_s: float


@dataclass
class RecoveryPoint:
    seed: int
    shard_size: int
    detect_redeploy_s: float
    survivors_stable: bool
    audit_ok: bool
    post_recovery_identical: bool

    @property
    def ok(self) -> bool:
        return (self.survivors_stable and self.audit_ok
                and self.post_recovery_identical)


@dataclass
class FederationScalingResult:
    identity: list[IdentityPoint]
    recovery: list[RecoveryPoint]

    @property
    def all_identical(self) -> bool:
        return all(p.identical for p in self.identity)

    @property
    def all_recovered(self) -> bool:
        return all(p.ok for p in self.recovery)

    def tables(self) -> list[Table]:
        identity = Table(
            "Federated identity — root + 2 child controllers vs one process",
            ["topology", "nodes", "tree", "digests", "elapsed (s)"],
        )
        for p in self.identity:
            identity.add_row(
                p.topology, p.nodes, f"{p.controllers}x{p.workers}w",
                "identical" if p.identical else "DIVERGED",
                f"{p.elapsed_s:.1f}",
            )
        identity.note("digests are order-independent SHA-256 folds of every "
                      "application byte at the sinks")
        recovery = Table(
            "Controller-loss recovery — SIGKILL one child, audit the tree",
            ["seed", "shard nodes", "detect+redeploy (s)", "survivors",
             "telemetry audit", "post-recovery digest"],
        )
        for p in self.recovery:
            recovery.add_row(
                p.seed, p.shard_size, f"{p.detect_redeploy_s:.1f}",
                "stable" if p.survivors_stable else "DISTURBED",
                "ok" if p.audit_ok else "FAILED",
                "identical" if p.post_recovery_identical else "DIVERGED",
            )
        recovery.note("exactly the dead controller's shard is re-placed "
                      "through the root policy; survivors keep their ids")
        return [identity, recovery]


async def _start_tree(children: int = 2, workers_per_child: int = 2,
                      telemetry: Telemetry | None = None,
                      heartbeat_timeout: float = 3.0):
    observer = ObserverServer(NodeId("127.0.0.1", 0), poll_interval=0.2)
    await observer.start()
    root = RootController(observer, RootConfig(
        workers_per_child=workers_per_child, telemetry=telemetry,
        heartbeat_timeout=heartbeat_timeout,
    ))
    await root.start()
    await asyncio.gather(*(root.spawn_child(f"c{i}") for i in range(children)))
    return observer, root


async def _stop_tree(observer, root) -> None:
    await root.stop()
    await observer.stop()


async def _wait_alive(observer, placed, timeout: float = 60.0) -> None:
    ok = await wait_until(
        lambda: all(p.node_id in observer.observer.alive for p in placed.values()),
        timeout=timeout,
    )
    if not ok:
        raise AssertionError(
            f"only {len(observer.observer.alive)}/{len(placed)} placed "
            "nodes booted at the root observer"
        )


async def _federated_chain_digest(root, observer, length: int, app: int,
                                  count: int, size: int,
                                  prefix: str = "n") -> str:
    placed = await root.deploy(chain_specs(length, prefix=prefix))
    assert len({p.controller for p in placed.values()}) > 1, (
        "chain never crossed a controller boundary")
    await _wait_alive(observer, placed)
    root.send_control(
        f"{prefix}0", BURST_CONTROL, param1=count, param2=size, app=app)
    info = await poll_info(
        root, f"{prefix}{length - 1}",
        lambda i: i.get("received", 0) >= count, timeout=60.0)
    return info["digests"][str(app)]


async def _local_chain_digest(length: int, app: int, count: int,
                              size: int) -> str:
    host = await build_local(chain_specs(length))
    host.engine("n0").algorithm.on_control(burst_control_message(app, count, size))
    sink = host.engine(f"n{length - 1}").algorithm
    ok = await wait_until(lambda: sink.received >= count, timeout=30.0)
    assert ok, f"baseline sink got {sink.received}/{count}"
    digest = sink.digest(app)
    await host.stop()
    return digest


async def _identity_chain(length: int) -> IdentityPoint:
    app, count, size = 7, 40, 512
    t0 = time.monotonic()
    observer, root = await _start_tree()
    try:
        federated = await _federated_chain_digest(
            root, observer, length, app, count, size)
    finally:
        await _stop_tree(observer, root)
    local = await _local_chain_digest(length, app, count, size)
    return IdentityPoint(
        topology="chain", nodes=length, controllers=2, workers=2,
        identical=bool(federated) and federated == local,
        elapsed_s=time.monotonic() - t0,
    )


async def _identity_butterfly() -> IdentityPoint:
    app, count, size = 9, BUTTERFLY_COUNT, 256
    generations = count // 2
    t0 = time.monotonic()
    observer, root = await _start_tree()
    try:
        placed = await root.deploy(butterfly_specs())
        assert len({p.controller for p in placed.values()}) > 1
        await _wait_alive(observer, placed)
        root.send_control("A", BURST_CONTROL, param1=count, param2=size, app=app)
        federated = {}
        for name in ("F", "G"):
            info = await poll_info(
                root, name, lambda i: i.get("decoded", 0) >= generations,
                timeout=60.0)
            federated[name] = info["digest"]
    finally:
        await _stop_tree(observer, root)

    host = await build_local(butterfly_specs())
    host.engine("A").algorithm.on_control(burst_control_message(app, count, size))
    sinks = {name: host.engine(name).algorithm for name in ("F", "G")}
    ok = await wait_until(
        lambda: all(s.decoded_generations >= generations for s in sinks.values()),
        timeout=30.0,
    )
    assert ok, {name: s.decoded_generations for name, s in sinks.items()}
    local = {name: s.digest() for name, s in sinks.items()}
    await host.stop()
    return IdentityPoint(
        topology="coding butterfly", nodes=len(butterfly_specs()),
        controllers=2, workers=2,
        identical=bool(federated["F"]) and federated == local,
        elapsed_s=time.monotonic() - t0,
    )


def _audit_telemetry(telemetry: Telemetry, dead: str,
                     dead_shard: set[str]) -> bool:
    """The full controller-death audit: gauge, counters, trace events."""
    reg = telemetry.registry
    checks = [
        reg.get("ioverlay_cluster_controllers").labels().value == 1.0,
        {labels["controller"]: c.value for labels, c in reg.get(
            "ioverlay_cluster_controller_dead_total").series()} == {dead: 1.0},
        {labels["controller"]: c.value for labels, c in reg.get(
            "ioverlay_cluster_shard_redeployed_total").series()} == {dead: 1.0},
    ]
    events = list(telemetry.tracer.events())
    dead_events = [e for e in events if e.event == EventType.CONTROLLER_DEAD]
    shard_events = [e for e in events if e.event == EventType.SHARD_REDEPLOYED]
    checks += [
        len(dead_events) == 1 and set(dead_events[0].detail["shard"]) == dead_shard,
        len(shard_events) == 1 and set(shard_events[0].detail["nodes"]) == dead_shard,
    ]
    return all(checks)


async def _recovery(seed: int, length: int) -> RecoveryPoint:
    # seed-derived burst parameters so each run exercises different bytes
    app = 3 + seed
    count, size = 20 + 5 * seed, 128 << (seed % 3)
    telemetry = Telemetry()
    observer, root = await _start_tree(
        telemetry=telemetry, heartbeat_timeout=2.0)
    try:
        placed = await root.deploy(chain_specs(length))
        dead = "c1"
        dead_shard = {n for n, p in placed.items() if p.controller == dead}
        survivors = {n: p.node_id for n, p in placed.items()
                     if p.controller != dead}
        assert dead_shard and survivors
        await _wait_alive(observer, placed)

        t_kill = time.monotonic()
        root.controllers[dead].process.send_signal(signal.SIGKILL)
        ok = await wait_until(lambda: root.shards_redeployed >= 1, timeout=30.0)
        assert ok, "shard redeploy never completed"
        detect_redeploy = time.monotonic() - t_kill

        stable = all(root.placed[n].node_id == nid
                     for n, nid in survivors.items())
        for name in dead_shard:
            fresh = root.placed[name]
            stable = stable and fresh.controller != dead
            stable = stable and fresh.node_id != placed[name].node_id
            info = await root.node_info(name)
            stable = stable and info["running"] is True
        audit_ok = (_audit_telemetry(telemetry, dead, dead_shard)
                    and root.controller_deaths == 1
                    and root.nodes_redeployed == len(dead_shard))

        # the recovered tree is still a working federation: a fresh
        # chain deployed across it must match the one-process digest.
        # (With one child left the chain cannot cross controllers, so
        # skip that assertion and just compare bytes.)
        post_placed = await root.deploy(chain_specs(length, prefix="p"))
        await _wait_alive(observer, post_placed)
        root.send_control("p0", BURST_CONTROL, param1=count, param2=size, app=app)
        info = await poll_info(
            root, f"p{length - 1}", lambda i: i.get("received", 0) >= count,
            timeout=60.0)
        federated = info["digests"][str(app)]
    finally:
        await _stop_tree(observer, root)
    local = await _local_chain_digest(length, app, count, size)
    return RecoveryPoint(
        seed=seed, shard_size=len(dead_shard),
        detect_redeploy_s=detect_redeploy,
        survivors_stable=stable, audit_ok=audit_ok,
        post_recovery_identical=bool(federated) and federated == local,
    )


def run_federation_scaling(chain_len: int = CHAIN_LEN,
                           seeds: int = 2) -> FederationScalingResult:
    identity = [
        asyncio.run(_identity_chain(chain_len)),
        asyncio.run(_identity_butterfly()),
    ]
    recovery = [
        asyncio.run(_recovery(seed, RECOVERY_CHAIN_LEN))
        for seed in range(seeds)
    ]
    return FederationScalingResult(identity=identity, recovery=recovery)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        description="federated control plane: identity + controller-loss recovery")
    parser.add_argument("--smoke", action="store_true",
                        help=f"CI-sized workload ({SMOKE_CHAIN_LEN}-node chain)")
    parser.add_argument("--seeds", type=int, default=2,
                        help="recovery repetitions with seed-derived bursts")
    args = parser.parse_args(argv)

    chain_len = SMOKE_CHAIN_LEN if args.smoke else CHAIN_LEN
    result = run_federation_scaling(chain_len=chain_len, seeds=args.seeds)
    for table in result.tables():
        table.print()
    if not result.all_identical:
        raise SystemExit("FAILED: federated digests diverged from one process")
    if not result.all_recovered:
        raise SystemExit("FAILED: controller-loss recovery audit failed")
    print(f"federation holds the byte-identity bar and recovered from "
          f"{len(result.recovery)} controller kill(s)")


if __name__ == "__main__":
    main()
