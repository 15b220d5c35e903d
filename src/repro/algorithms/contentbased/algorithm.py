"""Content-based networking on iOverlay (the Section 3.1 sketch, realized).

"Any algorithm in content-based networks boils down to one that makes
decisions on which nodes should a message be forwarded to, and this may
be implemented as a derived class from iAlgorithm" — this module is that
derived class.

The design is a classic subscription-forwarding broker mesh:

- clients *subscribe* by sending their predicate to their broker;
- brokers propagate (possibly covered) subscriptions to their broker
  neighbours, building per-neighbour routing predicates;
- a published event enters at any broker and is forwarded along exactly
  the links whose routing predicate matches it, then delivered to
  matching local clients.

Covering optimization: a broker does not re-propagate a subscription
that an already-forwarded predicate covers, which is what keeps
advertisement traffic sublinear in subscriber count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algorithms.contentbased.predicates import (
    AttributeValue,
    Predicate,
    event_from_wire,
    event_to_wire,
)
from repro.core.algorithm import Algorithm, Disposition
from repro.core.ids import AppId, NodeId
from repro.core.message import Message
from repro.core.msgtypes import ALGORITHM_TYPE_BASE

#: algorithm-specific message types (above the reserved range)
SUBSCRIBE = ALGORITHM_TYPE_BASE + 10
UNSUBSCRIBE = ALGORITHM_TYPE_BASE + 11
PUBLISH = ALGORITHM_TYPE_BASE + 12


@dataclass
class _Subscription:
    """One predicate a peer (client or broker) asked us to serve."""

    subscriber: NodeId
    predicate: Predicate
    seq: int = 0


@dataclass
class DeliveryLog:
    """What a subscriber actually received (for experiment assertions)."""

    events: list[dict[str, AttributeValue]] = field(default_factory=list)

    def count(self) -> int:
        return len(self.events)


class ContentBasedBroker(Algorithm):
    """A broker node of the content-based overlay."""

    def __init__(self, neighbors: list[NodeId] | None = None, seed: int | None = None) -> None:
        super().__init__(seed=seed)
        self._neighbors = list(neighbors or [])  # broker mesh links
        self._subscriptions: list[_Subscription] = []
        self._forwarded: dict[NodeId, list[Predicate]] = {}
        self.published = 0
        self.forwarded_events = 0
        self.dropped_events = 0
        self.suppressed_subscriptions = 0
        self.register(SUBSCRIBE, self._on_subscribe)
        self.register(UNSUBSCRIBE, self._on_unsubscribe)
        self.register(PUBLISH, self._on_publish)

    def set_neighbors(self, neighbors: list[NodeId]) -> None:
        self._neighbors = list(neighbors)

    # ----------------------------------------------------------------- routing state

    def routing_predicates(self, peer: NodeId) -> list[Predicate]:
        """The predicates we currently owe to ``peer``."""
        return [sub.predicate for sub in self._subscriptions if sub.subscriber == peer]

    def _interest_of(self, peer: NodeId) -> list[Predicate]:
        return self.routing_predicates(peer)

    # ------------------------------------------------------------------- subscribe

    def _on_subscribe(self, msg: Message) -> Disposition:
        fields = msg.fields()
        subscriber = NodeId.parse(fields["subscriber"])
        predicate = Predicate.from_wire(fields["predicate"])
        self._subscriptions.append(_Subscription(subscriber, predicate, msg.seq))
        self._propagate(predicate, arrived_from=subscriber)
        return Disposition.DONE

    def _on_unsubscribe(self, msg: Message) -> Disposition:
        fields = msg.fields()
        subscriber = NodeId.parse(fields["subscriber"])
        predicate = Predicate.from_wire(fields["predicate"])
        self._subscriptions = [
            sub for sub in self._subscriptions
            if not (sub.subscriber == subscriber and sub.predicate == predicate)
        ]
        return Disposition.DONE

    def _propagate(self, predicate: Predicate, arrived_from: NodeId) -> None:
        """Forward the subscription to broker neighbours, unless covered."""
        for neighbor in self._neighbors:
            if neighbor == arrived_from:
                continue
            already = self._forwarded.setdefault(neighbor, [])
            if any(existing.covers(predicate) for existing in already):
                self.suppressed_subscriptions += 1
                continue
            already.append(predicate)
            forward = Message.with_fields(
                SUBSCRIBE, self.node_id, 0,
                subscriber=str(self.node_id),  # we aggregate for our subtree
                predicate=predicate.to_wire(),
            )
            self.send(forward, neighbor)

    # --------------------------------------------------------------------- publish

    def publish(self, event: dict[str, AttributeValue], app: AppId = 0) -> None:
        """Inject an event at this broker (the publisher's entry point)."""
        msg = Message(PUBLISH, self.node_id, app, event_to_wire(event))
        self.published += 1
        self._route(event, msg, arrived_from=self.node_id)

    def _on_publish(self, msg: Message) -> Disposition:
        event = event_from_wire(msg.payload)
        self._route(event, msg, arrived_from=msg.sender)
        return Disposition.DONE

    def _route(self, event: dict[str, AttributeValue], msg: Message,
               arrived_from: NodeId) -> None:
        targets = []
        for sub in self._subscriptions:
            if sub.subscriber == arrived_from or sub.subscriber == self.node_id:
                continue
            if sub.predicate.matches(event):
                targets.append(sub.subscriber)
        unique_targets = list(dict.fromkeys(targets))
        if not unique_targets:
            self.dropped_events += 1
            return
        # Content-based messages are small protocol messages in the engine's
        # eyes, but semantically they are data: clone before re-sending a
        # received message, per the Section 2.3 ownership rule.
        outgoing = Message(PUBLISH, self.node_id, msg.app, msg.payload)
        for target in unique_targets:
            self.send(outgoing.clone(), target)
            self.forwarded_events += 1


class ContentBasedClient(Algorithm):
    """A client node: subscribes at a broker, records deliveries."""

    def __init__(self, broker: NodeId | None = None, seed: int | None = None) -> None:
        super().__init__(seed=seed)
        self.broker = broker
        self.delivered = DeliveryLog()
        self.register(PUBLISH, self._on_delivery)
        self._subscription_seq = 0

    def subscribe(self, predicate: Predicate) -> None:
        if self.broker is None:
            raise RuntimeError("client has no broker configured")
        self._subscription_seq += 1
        msg = Message.with_fields(
            SUBSCRIBE, self.node_id, 0,
            seq=self._subscription_seq,
            subscriber=str(self.node_id),
            predicate=predicate.to_wire(),
        )
        self.send(msg, self.broker)

    def unsubscribe(self, predicate: Predicate) -> None:
        if self.broker is None:
            raise RuntimeError("client has no broker configured")
        msg = Message.with_fields(
            UNSUBSCRIBE, self.node_id, 0,
            subscriber=str(self.node_id),
            predicate=predicate.to_wire(),
        )
        self.send(msg, self.broker)

    def _on_delivery(self, msg: Message) -> Disposition:
        self.delivered.events.append(event_from_wire(msg.payload))
        return Disposition.DONE
