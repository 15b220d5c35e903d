"""Deployment specs: what to place, where it may go, how heavy it is.

A :class:`NodeSpec` describes one overlay node independently of the
worker it lands on: the algorithm as an importable ``module:Class``
path, JSON-able constructor kwargs, a declared *weight* for bin-packing
and an optional *pin* to a named worker.  Node identities are only known
after placement (every node binds an ephemeral port), so specs refer to
other nodes symbolically: a kwarg value ``"@sink"`` names the spec
called ``sink``.  The controller substitutes the placed identity before
shipping the spec (:func:`resolve_refs`) and the worker coerces the wire
form back to :class:`~repro.core.ids.NodeId` objects at construction
time (:func:`coerce_node_refs`).

Topologies are therefore built in reverse topological order — sinks
first — so every ``"@name"`` a spec mentions is already placed when the
spec itself is.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.ids import NodeId
from repro.errors import ClusterError, UnknownNodeError

#: wire prefix marking a string kwarg as a placed node identity
NODE_REF_PREFIX = "noderef:"


def ref(name: str) -> str:
    """Symbolic reference to the node spec called ``name``."""
    return f"@{name}"


@dataclass
class NodeSpec:
    """One overlay node, described independently of its placement."""

    name: str
    #: importable algorithm class, ``"package.module:ClassName"``
    algorithm: str
    #: JSON-able constructor kwargs; string values ``"@name"`` (also
    #: inside lists) are placement-time references to other specs
    kwargs: dict[str, Any] = field(default_factory=dict)
    #: declared load for bin-packing (e.g. a coding node > a relay)
    weight: float = 1.0
    #: worker name this node must land on (overrides the policy)
    pin: str | None = None
    #: in a federated deployment: child-controller name this node must
    #: land under (first placement stage; ``pin`` then still applies to
    #: that controller's own worker choice)
    controller: str | None = None


@dataclass
class ControllerSpec:
    """One child controller of a federated deployment, as the root sees it.

    ``capacity`` declares how much total spec weight the controller's
    fleet is sized for, ``weight`` scales its share under weighted
    placement (a beefier machine takes proportionally more load).
    """

    name: str
    workers: int = 2
    capacity: float = 0.0
    weight: float = 1.0


@dataclass
class PlacedNode:
    """A spec bound to a worker and a final node identity."""

    spec: NodeSpec
    worker: str
    node_id: NodeId
    #: child controller hosting the worker ("" outside federation)
    controller: str = ""


def resolve_refs(kwargs: dict[str, Any], lookup: Callable[[str], NodeId]) -> dict[str, Any]:
    """Substitute every ``"@name"`` reference with its placed identity.

    ``lookup`` maps a spec name to the placed :class:`NodeId`; unknown
    names raise :class:`~repro.errors.ClusterError` (the topology was
    not built sinks-first).  Returns a new dict in wire form — node
    identities appear as ``"noderef:ip:port"`` strings.
    """

    def resolve(value: Any) -> Any:
        if isinstance(value, str) and value.startswith("@"):
            try:
                node = lookup(value[1:])
            except (KeyError, UnknownNodeError):
                raise ClusterError(
                    f"spec references {value!r} which is not placed yet "
                    "(build topologies sinks-first)"
                ) from None
            return f"{NODE_REF_PREFIX}{node}"
        if isinstance(value, list):
            return [resolve(item) for item in value]
        if isinstance(value, dict):
            # Keys stay verbatim (they are commodity ids / plain names);
            # only values may reference placed nodes.
            return {key: resolve(item) for key, item in value.items()}
        return value

    return {key: resolve(value) for key, value in kwargs.items()}


def coerce_node_refs(value: Any) -> Any:
    """Turn wire-form ``"noderef:ip:port"`` strings back into NodeIds."""
    if isinstance(value, str) and value.startswith(NODE_REF_PREFIX):
        return NodeId.parse(value[len(NODE_REF_PREFIX):])
    if isinstance(value, list):
        return [coerce_node_refs(item) for item in value]
    if isinstance(value, dict):
        return {key: coerce_node_refs(item) for key, item in value.items()}
    return value


def load_algorithm_class(path: str) -> type:
    """Import ``"package.module:ClassName"`` and return the class."""
    module_name, sep, class_name = path.partition(":")
    if not sep:
        raise ClusterError(f"algorithm path must be 'module:Class', got {path!r}")
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise ClusterError(f"cannot import algorithm module {module_name!r}: {exc}") from exc
    try:
        cls = getattr(module, class_name)
    except AttributeError:
        raise ClusterError(f"{module_name!r} has no class {class_name!r}") from None
    return cls


def build_algorithm(path: str, wire_kwargs: dict[str, Any]) -> Any:
    """Instantiate a spec's algorithm from its wire-form kwargs."""
    cls = load_algorithm_class(path)
    kwargs = {key: coerce_node_refs(value) for key, value in wire_kwargs.items()}
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ClusterError(f"cannot construct {path}: {exc}") from exc
