"""The sFlow service-federation algorithm and its comparators.

From Section 3.4 of the paper:

- A node is *assigned* a service instance by the observer (``sAssign``)
  and maintains a service graph of producer-consumer relationships.
- It disseminates its existence via ``sAware`` messages, relayed until
  an existing service node forwards them to the peers of adjacent
  service types; every node accumulates a directory mapping service
  types to candidate hosts (with their capacity and current load).
- A federation session starts with an ``sFederate`` message carrying the
  service requirement to the designated source service node.  As the
  message is forwarded, each node applies a local policy to select the
  downstream host for the next required type until the sink is reached;
  the sink acknowledges with ``sFederateAck``.
- The session concludes by deploying actual data streams through the
  selected services (each node keeps a per-session routing table).

Selection policies (the paper's comparison of Fig. 19):

- ``sflow``: most bandwidth-efficient — maximize the candidate's
  *available* bandwidth, ``capacity / (active sessions + 1)``;
- ``fixed``: highest *capacity* candidate, ignoring load;
- ``random``: any candidate hosting the required type.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algorithms.federation.requirement import Requirement, ServiceType
from repro.core.algorithm import Algorithm, Disposition
from repro.core.ids import NodeId
from repro.core.message import Message
from repro.core.msgtypes import MsgType
from repro.core.stats import ThroughputMeter

POLICY_NAMES = ("sflow", "fixed", "random")

_TIMER_REFRESH = 11
_TIMER_SESSION_SWEEP = 12

_AWARE_TTL = 8


@dataclass
class ServiceInfo:
    """What this node believes about one candidate host of a type."""

    node: NodeId
    capacity: float
    sessions: int
    updated_at: float

    @property
    def available(self) -> float:
        """Estimated available bandwidth: an equal share among sessions."""
        return self.capacity / (self.sessions + 1)


@dataclass
class SessionState:
    """Per-session bookkeeping on a node that is part of the path."""

    session: int
    requirement: Requirement
    position: int
    next_hops: dict[int, NodeId] = field(default_factory=dict)  # req node -> host
    started_at: float = 0.0


@dataclass
class OverheadRecord:
    """One control-message send, for the overhead figures (15-18)."""

    time: float
    kind: str  # "aware" | "federate"
    size: int


class FederationAlgorithm(Algorithm):
    """A service-overlay node: hosts services, federates requirements."""

    def __init__(
        self,
        capacity: float,
        policy: str = "sflow",
        refresh_interval: float = 10.0,
        session_duration: float = 60.0,
        seed: int | None = None,
    ) -> None:
        super().__init__(seed=seed)
        if policy not in POLICY_NAMES:
            raise ValueError(f"policy must be one of {POLICY_NAMES}, got {policy!r}")
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.policy = policy
        self.refresh_interval = refresh_interval
        self.session_duration = session_duration

        self.hosted: dict[ServiceType, int] = {}  # type -> service id
        self.directory: dict[ServiceType, dict[NodeId, ServiceInfo]] = {}
        self.sessions: dict[int, SessionState] = {}
        self.completed_sessions: list[int] = []
        self.overhead: list[OverheadRecord] = []
        self.acks_received: list[dict] = []
        self.received = ThroughputMeter()
        self._seen_aware: set[tuple[str, int]] = set()
        self._refresh_armed = False
        self._last_advertised_sessions: int | None = None

        self.register(MsgType.S_ASSIGN, self._on_assign)
        self.register(MsgType.S_AWARE, self._on_aware)
        self.register(MsgType.S_FEDERATE, self._on_federate)
        self.register(MsgType.S_FEDERATE_ACK, self._on_federate_ack)

    # ------------------------------------------------------------------- metrics

    def overhead_bytes(self, kind: str | None = None) -> int:
        return sum(r.size for r in self.overhead if kind is None or r.kind == kind)

    @property
    def active_sessions(self) -> int:
        return len(self.sessions)

    @property
    def available(self) -> float:
        return self.capacity / (self.active_sessions + 1)

    # ----------------------------------------------------------- service hosting

    def _on_assign(self, msg: Message) -> Disposition:
        fields = msg.fields()
        service_type = ServiceType(fields["service_type"])
        service_id = int(fields.get("service_id", service_type))
        self.hosted[service_type] = service_id
        self._record_self(service_type)
        self._advertise(service_type)
        if not self._refresh_armed:
            self._refresh_armed = True
            self.engine.set_timer(self.refresh_interval, _TIMER_REFRESH)
            self.engine.set_timer(self.session_duration / 4, _TIMER_SESSION_SWEEP)
        return Disposition.DONE

    def _record_self(self, service_type: ServiceType) -> None:
        self.directory.setdefault(service_type, {})[self.node_id] = ServiceInfo(
            self.node_id, self.capacity, self.active_sessions, self.engine.now()
        )

    def _advertise(self, service_type: ServiceType) -> None:
        """Disseminate this node's service existence (``sAware``)."""
        aware = self._aware_message(service_type)
        sent = self.disseminate(aware, self.known_hosts, p=1.0)
        if sent:
            self._account("aware", aware.size * sent)

    def _aware_message(self, service_type: ServiceType, ttl: int = _AWARE_TTL) -> Message:
        return Message.with_fields(
            MsgType.S_AWARE, self.node_id, 0,
            seq=self.rng.randrange(1 << 30),
            origin=str(self.node_id),
            service_type=service_type,
            capacity=self.capacity,
            sessions=self.active_sessions,
            ttl=ttl,
        )

    def _on_aware(self, msg: Message) -> Disposition:
        fields = msg.fields()
        origin = NodeId.parse(fields["origin"])
        service_type = ServiceType(fields["service_type"])
        self.known_hosts.add(origin)
        if origin != self.node_id:
            self.directory.setdefault(service_type, {})[origin] = ServiceInfo(
                origin, float(fields["capacity"]), int(fields["sessions"]), self.engine.now()
            )
        key = (str(origin), int(msg.seq))
        if key in self._seen_aware:
            return Disposition.DONE
        self._seen_aware.add(key)
        ttl = int(fields.get("ttl", 0))
        if ttl <= 0:
            return Disposition.DONE
        forwarded = Message.with_fields(
            MsgType.S_AWARE, msg.sender, msg.app, seq=msg.seq, **(fields | {"ttl": ttl - 1})
        )
        if self.hosted:
            # An existing service node: forward to peers of adjacent types,
            # in directory order (a set would order them by the salted hash).
            targets = dict.fromkeys(
                info.node
                for hosted_type in self.hosted
                for adjacent in (hosted_type - 1, hosted_type + 1)
                for info in self.directory.get(adjacent, {}).values()
                if info.node not in (self.node_id, origin)
            )
            sent = 0
            for target in targets:
                self.send(forwarded.clone(), target)
                sent += 1
        else:
            # Not a service node: relay toward one random known host.
            candidates = [n for n in self.known_hosts if n not in (origin, self.node_id)]
            sent = 0
            if candidates:
                self.send(forwarded, self.rng.choice(candidates))
                sent = 1
        if sent:
            self._account("aware", forwarded.size * sent)
        return Disposition.DONE

    # -------------------------------------------------------------- federation

    def _on_federate(self, msg: Message) -> Disposition:
        fields = msg.fields()
        session = int(fields["session"])
        requirement = Requirement.from_wire(fields["requirement"])
        position = int(fields["position"])
        source = NodeId.parse(fields["source"])
        path: list[str] = list(fields.get("path", []))
        req_node = requirement.node(position)
        state = SessionState(
            session=session,
            requirement=requirement,
            position=position,
            started_at=self.engine.now(),
        )
        self.sessions[session] = state
        self._record_self_all()
        if not req_node.children:
            # Sink service reached: acknowledge back to the session source.
            ack = Message.with_fields(
                MsgType.S_FEDERATE_ACK, self.node_id, msg.app,
                session=session,
                path=path + [str(self.node_id)],
                sink=str(self.node_id),
            )
            self.send(ack, source)
            self._account("federate", ack.size)
            return Disposition.DONE
        for child_id in req_node.children:
            child_type = requirement.node(child_id).service_type
            choice = self._select(child_type, exclude={NodeId.parse(p) for p in path} | {self.node_id})
            if choice is None:
                # Cannot complete this branch; report failure to the source.
                failure = Message.with_fields(
                    MsgType.S_FEDERATE_ACK, self.node_id, msg.app,
                    session=session, failed=True, missing_type=child_type,
                )
                self.send(failure, source)
                self._account("federate", failure.size)
                continue
            state.next_hops[child_id] = choice
            # Optimistic bookkeeping: remember that we just loaded this
            # candidate, so consecutive selections balance even before the
            # next sAware refresh arrives.
            chosen_info = self.directory.get(child_type, {}).get(choice)
            if chosen_info is not None:
                chosen_info.sessions += 1
            forward = Message.with_fields(
                MsgType.S_FEDERATE, self.node_id, msg.app,
                session=session,
                requirement=fields["requirement"],
                position=child_id,
                source=str(source),
                path=path + [str(self.node_id)],
            )
            self.send(forward, choice)
            self._account("federate", forward.size)
        return Disposition.DONE

    def _record_self_all(self) -> None:
        for service_type in self.hosted:
            self._record_self(service_type)

    def _select(self, service_type: ServiceType, exclude: set[NodeId]) -> NodeId | None:
        candidates = [
            info for info in self.directory.get(service_type, {}).values()
            if info.node not in exclude
        ]
        if not candidates:
            return None
        if self.policy == "random":
            return self.rng.choice(candidates).node
        if self.policy == "fixed":
            return max(candidates, key=lambda info: (info.capacity, str(info.node))).node
        # sflow: most bandwidth-efficient — the largest available share.
        return max(candidates, key=lambda info: (info.available, str(info.node))).node

    def _on_federate_ack(self, msg: Message) -> Disposition:
        self.acks_received.append(msg.fields())
        return Disposition.DONE

    # ----------------------------------------------------------------- data plane

    def on_data(self, msg: Message) -> Disposition:
        """Route session data along the federated path (app id = session)."""
        self.received.record(msg.size, self.engine.now())
        state = self.sessions.get(int(msg.app))
        if state is None:
            return Disposition.DONE
        for next_hop in state.next_hops.values():
            self.send(msg, next_hop)
        return Disposition.DONE

    def receive_rate(self) -> float:
        """Data throughput observed at this node (B/s, sliding window)."""
        return self.received.rate(self.engine.now())

    # ------------------------------------------------------------------- timers

    def on_timer(self, token: int) -> Disposition:
        if token == _TIMER_REFRESH:
            # Delta-triggered: only re-advertise when our load changed since
            # the previous refresh, so a quiescent overlay goes silent (the
            # paper's Fig. 16 shows sAware traffic decaying once service
            # arrivals stop).
            if self._last_advertised_sessions != self.active_sessions:
                self._last_advertised_sessions = self.active_sessions
                for service_type in self.hosted:
                    self._refresh(service_type)
            self.engine.set_timer(self.refresh_interval, _TIMER_REFRESH)
        elif token == _TIMER_SESSION_SWEEP:
            self._expire_sessions()
            self.engine.set_timer(self.session_duration / 4, _TIMER_SESSION_SWEEP)
        return Disposition.DONE

    def _refresh(self, service_type: ServiceType) -> None:
        """Re-advertise current load to peers of *adjacent* service types.

        Those peers are exactly the nodes that select downstream hosts of
        our type during federation, so this is the cheapest propagation
        that keeps sFlow's availability estimates fresh.
        """
        aware = self._aware_message(service_type, ttl=0)
        targets = [
            info.node
            for adjacent in (service_type - 1, service_type + 1)
            for info in self.directory.get(adjacent, {}).values()
            if info.node != self.node_id
        ]
        sent = 0
        for target in dict.fromkeys(targets):
            self.send(aware.clone(), target)
            sent += 1
        if sent:
            self._account("aware", aware.size * sent)
        self._record_self(service_type)

    def _expire_sessions(self) -> None:
        now = self.engine.now()
        expired = [
            sid for sid, state in self.sessions.items()
            if now - state.started_at > self.session_duration
        ]
        for sid in expired:
            del self.sessions[sid]
            self.completed_sessions.append(sid)

    # ------------------------------------------------------------------ helpers

    def _account(self, kind: str, size: int) -> None:
        self.overhead.append(OverheadRecord(self.engine.now(), kind, size))
