"""Deterministic cluster workloads with verifiable byte-level output.

The acceptance bar for the cluster layer is *byte identity*: a topology
sharded across worker processes must deliver exactly the bytes a
single-process :class:`~repro.net.virtual.VirtualHost` run delivers.
Paced sources (``start_source``) emit on wall-clock schedules and can
never be compared byte-for-byte across runs, so these scenarios use
**burst** sources instead: an observer ``CONTROL`` verb
(:data:`BURST_CONTROL`) tells the source to emit exactly ``param1``
messages of ``param2`` bytes, with payloads that are a pure function of
``(app, seq, size)``.  Sinks fold what they receive into order-
independent SHA-256 digests and expose them through the duck-typed
``cluster_info()`` hook the worker's ``W_NODE_INFO`` verb serves — so
two runs are byte-identical iff their digests match, regardless of
process count or arrival order.

Two topologies mirror the repo's reference workloads:

- :func:`chain_specs` — the Fig. 5 forwarding chain;
- :func:`butterfly_specs` — the Fig. 8 network-coding butterfly
  (source splits into two sub-streams, a coding node combines them,
  two receivers decode from one plain and one coded stream each).

Relay and sink algorithms here also trace ``cluster-broken-link`` /
``cluster-broken-source`` to the observer, which is how the worker-kill
tests assert the failure domino reached exactly the dead worker's
nodes.
"""

from __future__ import annotations

import asyncio
import hashlib
import inspect
from typing import Awaitable, Callable

from repro.algorithms.coding.algorithm import CodedSourceAlgorithm, DecodingSinkAlgorithm
from repro.algorithms.forwarding import CopyForwardAlgorithm
from repro.cluster.spec import NodeSpec, build_algorithm, ref, resolve_refs
from repro.core.algorithm import Algorithm, Disposition
from repro.core.ids import AppId, NodeId
from repro.core.message import Message
from repro.core.msgtypes import MsgType
from repro.errors import ClusterError
from repro.net.virtual import VirtualHost

#: ``CONTROL.type`` value that triggers a deterministic burst
BURST_CONTROL = 1

#: importable algorithm paths (what NodeSpecs carry over the wire)
RELAY = "repro.cluster.scenarios:ClusterRelayAlgorithm"
SOURCE = "repro.cluster.scenarios:BurstSourceAlgorithm"
SINK = "repro.cluster.scenarios:DigestSinkAlgorithm"
CODED_SOURCE = "repro.cluster.scenarios:CodedBurstSourceAlgorithm"
CODING = "repro.algorithms.coding.algorithm:CodingNodeAlgorithm"
DECODING_SINK = "repro.cluster.scenarios:DecodingDigestSinkAlgorithm"


def burst_payload(app: AppId, seq: int, size: int) -> bytes:
    """The data portion of burst message ``seq``: pure f(app, seq, size)."""
    step = (seq * 31 + app * 17 + 7) % 251 + 1
    start = (seq * 131 + app) % 256
    return bytes((start + i * step) % 256 for i in range(size))


def _combined(parts: dict[int, str]) -> str:
    """Fold per-key digests into one order-independent hex digest."""
    whole = hashlib.sha256()
    for key in sorted(parts):
        whole.update(f"{key}:{parts[key]};".encode())
    return whole.hexdigest()


class _ClusterTracing:
    """Mixin: surface fabric failure notices as observer traces.

    The worker-kill tests read these back from the observer's central
    trace log to prove the domino reached exactly the dead worker's
    hosted nodes — and nobody else.
    """

    def on_broken_link(self, msg: Message) -> Disposition:
        fields = msg.fields()
        self.trace(
            f"cluster-broken-link peer={fields['peer']} "
            f"direction={fields.get('direction', '')}"
        )
        return super().on_broken_link(msg) or Disposition.DONE

    def on_broken_source(self, msg: Message) -> Disposition:
        self.trace(f"cluster-broken-source app={msg.app}")
        return super().on_broken_source(msg) or Disposition.DONE


class BurstSourceAlgorithm(_ClusterTracing, CopyForwardAlgorithm):
    """Emit exactly ``param1`` deterministic messages of ``param2`` bytes.

    Triggered by the observer's CONTROL verb; each message is copied to
    every configured downstream, like the paced sources do.
    """

    def __init__(self, downstreams: list[NodeId] | None = None, seed: int | None = None) -> None:
        super().__init__(downstreams=downstreams, seed=seed)
        self.bursts = 0
        self.emitted = 0

    def on_control(self, msg: Message) -> Disposition:
        fields = msg.fields()
        if int(fields.get("type", 0)) != BURST_CONTROL:
            return Disposition.DONE
        count, size = int(fields.get("param1", 0)), int(fields.get("param2", 0))
        for seq in range(count):
            data = Message(
                MsgType.DATA, self.node_id, msg.app,
                burst_payload(msg.app, seq, size), seq=seq,
            )
            for dest in self.downstream_targets:
                self.send(data, dest)
            self.emitted += 1
        self.bursts += 1
        return Disposition.DONE

    def cluster_info(self) -> dict:
        return {"emitted": self.emitted, "bursts": self.bursts}


class ClusterRelayAlgorithm(_ClusterTracing, CopyForwardAlgorithm):
    """Copy-forward relay that reports counters and failure traces."""

    def cluster_info(self) -> dict:
        return {"received": self.received, "forwarded": self.forwarded}


class DigestSinkAlgorithm(_ClusterTracing, Algorithm):
    """Consume data and keep an order-independent digest per application."""

    def __init__(self, seed: int | None = None) -> None:
        super().__init__(seed=seed)
        # app -> seq -> payload digest; last copy wins, which is safe
        # because burst payloads are pure functions of (app, seq, size).
        self._digests: dict[int, dict[int, str]] = {}
        self.received = 0

    def on_data(self, msg: Message) -> Disposition:
        per_app = self._digests.setdefault(msg.app, {})
        per_app[msg.seq] = hashlib.sha256(msg.payload).hexdigest()
        self.received += 1
        return Disposition.DONE

    def digest(self, app: AppId) -> str:
        return _combined(self._digests.get(app, {}))

    def cluster_info(self) -> dict:
        return {
            "received": self.received,
            "digests": {str(app): self.digest(app) for app in sorted(self._digests)},
        }


class CodedBurstSourceAlgorithm(CodedSourceAlgorithm):
    """Coded source fed by deterministic bursts instead of a paced task.

    The burst routes through the ordinary :meth:`on_data` splitter, so
    sub-stream fan-out and generation numbering are exactly those of the
    paced coded source.
    """

    def on_control(self, msg: Message) -> Disposition:
        fields = msg.fields()
        if int(fields.get("type", 0)) != BURST_CONTROL:
            return Disposition.DONE
        count, size = int(fields.get("param1", 0)), int(fields.get("param2", 0))
        for seq in range(count):
            self.on_data(Message(
                MsgType.DATA, self.node_id, msg.app,
                burst_payload(msg.app, seq, size), seq=seq,
            ))
        return Disposition.DONE

    def cluster_info(self) -> dict:
        return {"produced": self.produced}


class DecodingDigestSinkAlgorithm(_ClusterTracing, DecodingSinkAlgorithm):
    """Decoding sink that digests every decoded generation's originals."""

    def __init__(
        self, k: int, forward_to: list[NodeId] | None = None, seed: int | None = None
    ) -> None:
        super().__init__(k=k, forward_to=forward_to, seed=seed)
        self._generation_digests: dict[int, str] = {}

    def on_generation_decoded(self, generation: int, originals: list[bytes]) -> None:
        whole = hashlib.sha256()
        for original in originals:
            whole.update(original)
        self._generation_digests[generation] = whole.hexdigest()

    def digest(self) -> str:
        return _combined(self._generation_digests)

    def cluster_info(self) -> dict:
        return {"decoded": self.decoded_generations, "digest": self.digest()}


# ------------------------------------------------------------------ topologies

#: data message payload size in bytes of the CLI's chain runs
CHAIN_PAYLOAD = 1000


def chain_specs(length: int, prefix: str = "n") -> list[NodeSpec]:
    """A forwarding chain of ``length`` nodes, specs ordered sinks-first.

    ``{prefix}0`` is the burst source, ``{prefix}{length-1}`` the digest
    sink; everything between is a relay.  The source carries extra
    weight so bin-packing spreads real work, not just node counts.
    """
    if length < 2:
        raise ValueError(f"a chain needs at least 2 nodes, got {length}")
    specs = [NodeSpec(name=f"{prefix}{length - 1}", algorithm=SINK)]
    for i in range(length - 2, 0, -1):
        specs.append(NodeSpec(
            name=f"{prefix}{i}", algorithm=RELAY,
            kwargs={"downstreams": [ref(f"{prefix}{i + 1}")]},
        ))
    specs.append(NodeSpec(
        name=f"{prefix}0", algorithm=SOURCE,
        kwargs={"downstreams": [ref(f"{prefix}1")]}, weight=2.0,
    ))
    return specs


def butterfly_specs(prefix: str = "") -> list[NodeSpec]:
    """The Fig. 8 network-coding butterfly, specs ordered sinks-first.

    Source A splits into sub-streams via B and C; coding node D combines
    them (``a + b``) through relay E; receivers F and G each decode from
    one plain sub-stream and the coded stream.  Coding/decoding nodes
    carry extra weight for the bin-packing policy.
    """
    n = lambda name: f"{prefix}{name}"  # noqa: E731 - tiny local renamer
    return [
        NodeSpec(n("F"), DECODING_SINK, {"k": 2}, weight=2.0),
        NodeSpec(n("G"), DECODING_SINK, {"k": 2}, weight=2.0),
        NodeSpec(n("E"), RELAY, {"downstreams": [ref(n("F")), ref(n("G"))]}),
        NodeSpec(n("D"), CODING, {"k": 2, "downstreams": [ref(n("E"))]}, weight=2.0),
        NodeSpec(n("B"), RELAY, {"downstreams": [ref(n("D")), ref(n("F"))]}),
        NodeSpec(n("C"), RELAY, {"downstreams": [ref(n("D")), ref(n("G"))]}),
        NodeSpec(
            n("A"), CODED_SOURCE,
            {"downstreams": [ref(n("B")), ref(n("C"))]}, weight=2.0,
        ),
    ]


# ------------------------------------------------------- single-process baseline


async def build_local(
    specs: list[NodeSpec],
    observer_addr: NodeId | None = None,
    ip: str = "127.0.0.1",
) -> VirtualHost:
    """Instantiate the same specs in ONE VirtualHost (the baseline run).

    Each node is named after its spec.  Uses the identical spec ->
    algorithm construction path as the workers, so a digest mismatch
    against the cluster run can only come from the transport, never from
    differing wiring.
    """
    host = VirtualHost(observer_addr=observer_addr, ip=ip)
    for spec in specs:
        wire = resolve_refs(spec.kwargs, lambda name: host[name])
        algorithm = build_algorithm(spec.algorithm, wire)
        await host.start_node(host.add_node(algorithm, spec.name))
    return host


def burst_control_message(app: AppId, count: int, size: int) -> Message:
    """The CONTROL frame the observer would send to trigger a burst."""
    from repro.observer.observer import Observer

    return Message.with_fields(
        MsgType.CONTROL, Observer.OBSERVER_ID, app,
        type=BURST_CONTROL, param1=count, param2=size,
    )


async def wait_until(
    predicate: Callable[[], bool | Awaitable[bool]],
    timeout: float = 30.0,
    interval: float = 0.05,
) -> bool:
    """Poll ``predicate`` until true or ``timeout`` elapses on the loop's clock.

    ``predicate`` may return an awaitable (a ``node_info`` round trip,
    say); it is awaited before being judged.
    """
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while True:
        met = predicate()
        if inspect.isawaitable(met):
            met = await met
        if met or loop.time() >= deadline:
            return bool(met)
        await asyncio.sleep(interval)


async def require(what: str, missing: Callable[[], list], timeout: float = 30.0) -> None:
    """Wait until ``missing()`` comes back empty: a fleet's readiness gate.

    Raises :class:`~repro.errors.ClusterError` naming ``what`` and what
    is still missing on timeout, so a half-started fleet fails instead
    of being measured.
    """
    if not await wait_until(lambda: not missing(), timeout):
        raise ClusterError(f"{what}: still missing {missing()} after {timeout}s")


async def require_alive(observer, placed: dict, timeout: float = 30.0) -> None:
    """Wait until every ``placed`` node is alive at ``observer`` (a server)."""
    await require("nodes alive at the observer", lambda: [
        name for name, p in placed.items() if p.node_id not in observer.observer.alive
    ], timeout)


async def poll_info(
    tier, name: str, predicate: Callable[[dict], bool], timeout: float = 30.0
) -> dict:
    """Node ``name``'s ``cluster_info`` facts once ``predicate`` holds on them.

    ``tier`` is a controller or a federation root.  Raises
    ``AssertionError`` naming the last facts seen on timeout.
    """
    info: dict = {}

    async def met() -> bool:
        nonlocal info
        info = (await tier.node_info(name)).get("info", {})
        return predicate(info)

    if not await wait_until(met, timeout, interval=0.1):
        raise AssertionError(f"node {name!r}: condition never met; last info {info}")
    return info
