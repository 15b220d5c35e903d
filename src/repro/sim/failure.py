"""Controlled failure injection for robustness experiments.

The paper's observer injects faults "in a controlled fashion, while any
possible exceptions are handled by the engine, transparent to the
algorithm" (Section 3.1).  A :class:`FailureSchedule` is the one
declarative fault timeline: node kills, link cuts (loud), link stalls
(silent — only traffic-inactivity detection catches them), source
kills, and churn.  :meth:`FailureSchedule.arm` replays it on either
*fleet*: the simulator's :class:`~repro.sim.network.SimNetwork`
(absolute virtual times) or the asyncio
:class:`~repro.net.virtual.VirtualHost` (loop seconds after ``arm()``).

Churn support: schedules may also *grow* the deployment.  A
``join_node`` event asks a caller-supplied ``node_factory(fleet, name)``
to create and start a new node at fire time, and ``leave_node`` performs
a graceful departure — the algorithm gets a chance to announce it (via
an ``announce_leave()`` method, e.g. SWIM's gossip blast) before the
engine terminates.  Together with the Poisson generators in
:mod:`repro.membership.churn` this turns the one-shot fault schedule
into a sustained-churn driver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Literal

from repro.core.ids import NodeId
from repro.errors import ConfigurationError, UnknownNodeError

if TYPE_CHECKING:
    from repro.net.virtual import VirtualHost
    from repro.sim.network import SimNetwork

FailureKind = Literal[
    "kill_node", "cut_link", "stall_link", "kill_source", "join_node", "leave_node"
]

#: seconds between a leave announcement and the engine teardown, so the
#: departing node's final gossip blast drains its send queues
LEAVE_GRACE = 0.05

#: a join event's factory: create + start one node named ``name``.  On a
#: VirtualHost it returns an awaitable, which the host runs as a task.
NodeFactory = Callable[[Any, str], Any]


def announce_leave(algorithm) -> bool:
    """Let ``algorithm`` announce its departure if it can; True if it did."""
    announce = getattr(algorithm, "announce_leave", None)
    if callable(announce):
        announce()
    return callable(announce)


@dataclass(frozen=True)
class FailureEvent:
    """One scheduled fault."""

    at: float
    kind: FailureKind
    node: NodeId | str
    peer: NodeId | str | None = None
    app: int | None = None


_CHURN_TRACE = {
    "kill_node": "churn-crash",
    "join_node": "churn-join",
    "leave_node": "churn-leave",
}


@dataclass
class FailureSchedule:
    """A declarative list of faults applied at schedule times.

    Call :meth:`arm` once after the fleet has started; each event fires
    from a callback on the fleet's clock, so the schedule composes with
    any experiment loop.
    """

    events: list[FailureEvent] = field(default_factory=list)

    def kill_node(self, at: float, node: NodeId | str) -> "FailureSchedule":
        self.events.append(FailureEvent(at, "kill_node", node))
        return self

    def join_node(self, at: float, name: str) -> "FailureSchedule":
        """Create + start a new node at ``at`` via the armed node factory."""
        self.events.append(FailureEvent(at, "join_node", name))
        return self

    def leave_node(self, at: float, node: NodeId | str) -> "FailureSchedule":
        self.events.append(FailureEvent(at, "leave_node", node))
        return self

    def cut_link(self, at: float, src: NodeId | str, dst: NodeId | str) -> "FailureSchedule":
        self.events.append(FailureEvent(at, "cut_link", src, peer=dst))
        return self

    def stall_link(self, at: float, src: NodeId | str, dst: NodeId | str) -> "FailureSchedule":
        self.events.append(FailureEvent(at, "stall_link", src, peer=dst))
        return self

    def kill_source(self, at: float, node: NodeId | str, app: int) -> "FailureSchedule":
        self.events.append(FailureEvent(at, "kill_source", node, app=app))
        return self

    def arm(
        self, fleet: SimNetwork | VirtualHost, node_factory: NodeFactory | None = None
    ) -> None:
        """Schedule every event on ``fleet``'s clock.

        A fleet offers ``schedule(at, callback, *args)`` on its own clock,
        one verb per event kind, of the same name, each raising
        :class:`~repro.errors.UnknownNodeError` for a target that is gone,
        and ``telemetry`` (plus ``now`` when that is set) for the churn
        trace.  ``node_factory`` is required when the schedule contains
        ``join_node`` events.  Link faults on a fleet whose ``chaos`` is
        None (a loopback-only VirtualHost) are refused here, not when
        they fire: a fault the fleet cannot inject must not leave a
        fault-free run behind.
        """
        kinds = {e.kind for e in self.events}
        if node_factory is None and "join_node" in kinds:
            raise ConfigurationError(
                "schedule contains join_node events: arm(fleet, node_factory=...)"
            )
        if getattr(fleet, "chaos", True) is None and kinds & {"cut_link", "stall_link"}:
            raise ConfigurationError(
                "schedule contains link faults: arm on VirtualHost(chaos=ChaosController())"
            )
        for event in sorted(self.events, key=lambda e: e.at):
            fleet.schedule(event.at, self._fire, fleet, event, node_factory)

    @staticmethod
    def _fire(
        fleet: SimNetwork | VirtualHost,
        event: FailureEvent,
        node_factory: NodeFactory | None,
    ) -> None:
        # The six event kinds are the fleet's six verbs of the same name.
        args = {
            "join_node": (str(event.node), node_factory),
            "cut_link": (event.node, event.peer),
            "stall_link": (event.node, event.peer),
            "kill_source": (event.node, event.app),
        }.get(event.kind, (event.node,))
        try:
            getattr(fleet, event.kind)(*args)
        except UnknownNodeError:
            # The target already failed or was torn down first; an injected
            # fault racing a real one is not an experiment error.
            return
        trace_event = _CHURN_TRACE.get(event.kind)
        tel = fleet.telemetry
        if trace_event is not None and tel is not None and tel.tracer.enabled:
            tel.tracer.append_raw(fleet.now, str(event.node), trace_event, "", 0, {})
