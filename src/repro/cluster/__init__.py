"""Cluster scale-out: shard virtualized nodes across OS processes.

:class:`~repro.net.virtual.VirtualHost` packs N full engines onto one
asyncio loop, which makes a single GIL-bound process the scaling
ceiling.  This package is the layer above it: a fleet of **worker
processes** (each one event loop running a ``VirtualHost`` plus an
:class:`~repro.net.proxy.ObserverProxy`) governed by a central
:class:`ClusterController` that owns placement, deployment and
supervision — the paper's observer-driven deployment of virtualized
nodes across physical hosts (Sections 5-6), reproduced in miniature on
one machine.

- :mod:`repro.cluster.protocol` — the supervisor <-> child control
  channel (ordinary iOverlay frames, one ``W_*`` verb family for every
  tier);
- :mod:`repro.cluster.supervise` — the supervision core:
  spawn/reap/heartbeat/death-ladder/respawn over an abstract child
  handle, with a consecutive-respawn budget and idempotent teardown;
- :mod:`repro.cluster.tier` — the placement tier over that core: the
  placed map, the ``place`` skeleton and the deploy/stop/inspect facade,
  written once and instantiated twice;
- :mod:`repro.cluster.controller` — the worker-level instantiation:
  spawn/supervise the fleet, place nodes on workers, drive them through
  the observer's DEPLOY/TERMINATE verbs, optionally respawn-and-redeploy;
- :mod:`repro.cluster.federation` — the controller-level instantiation:
  a :class:`RootController` places specs across child controllers
  (two-stage placement, O(children) observer ingress), each child
  running a full :class:`ClusterController` over its own worker fleet;
- :mod:`repro.cluster.host` — the child end of a control channel (dial,
  register, serve, heartbeat, drain, process entry), written once;
- :mod:`repro.cluster.worker` / :mod:`repro.cluster.child` — the two
  hosts (``python -m repro.cluster.worker`` / ``repro.cluster.child``):
  a worker hosting nodes, a child controller hosting a fleet;
- :mod:`repro.net.tasks` — the one task owner both halves use (and
  the observer plane's endpoints);
- :mod:`repro.cluster.placement` — round-robin, bin-packing by declared
  node weight, explicit pinning, and the controller-level policies;
- :mod:`repro.cluster.scenarios` — deterministic chain/butterfly
  workloads used to prove cluster output is byte-identical to a
  single-process run.

Cross-worker overlay traffic uses the ordinary socket path; traffic
between nodes on the same worker keeps the zero-copy loopback fast
path.  The observer sees one connection per worker (the proxy), exactly
as the paper's firewall relay intends.
"""

from repro.cluster.controller import ClusterConfig, ClusterController, WorkerState
from repro.cluster.federation import ControllerState, RootConfig, RootController
from repro.cluster.placement import (
    BinPackPlacement,
    CapacityPlacement,
    ControllerLoad,
    ControllerPlacementPolicy,
    PlacementPolicy,
    RoundRobinPlacement,
    WeightedControllerPlacement,
    make_controller_placement,
    make_placement,
)
from repro.cluster.spec import ControllerSpec, NodeSpec, PlacedNode
from repro.cluster.supervise import RespawnPolicy, SupervisorCore


def __getattr__(name: str):
    # The process entry points are exported lazily: eagerly importing
    # repro.cluster.worker / repro.cluster.child here would shadow their
    # `python -m` execution (runpy warns when the module is in
    # sys.modules before execution).
    if name == "WorkerHost":
        from repro.cluster.worker import WorkerHost

        return WorkerHost
    if name == "ChildControllerHost":
        from repro.cluster.child import ChildControllerHost

        return ChildControllerHost
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "ClusterConfig",
    "ClusterController",
    "WorkerState",
    "RootConfig",
    "RootController",
    "ControllerState",
    "NodeSpec",
    "PlacedNode",
    "ControllerSpec",
    "PlacementPolicy",
    "RoundRobinPlacement",
    "BinPackPlacement",
    "ControllerPlacementPolicy",
    "CapacityPlacement",
    "WeightedControllerPlacement",
    "ControllerLoad",
    "make_placement",
    "make_controller_placement",
    "RespawnPolicy",
    "SupervisorCore",
    "WorkerHost",
    "ChildControllerHost",
]
