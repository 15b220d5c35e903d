"""The SWIM protocol core, independent of any transport.

SWIM [Das/Gupta/Motivala, DSN 2002] separates *failure detection*
(randomized ping / ping-req probing with a constant per-node message
load) from *dissemination* (membership updates piggybacked as rumours on
the probe traffic, each retransmitted O(log n) times), and uses
*incarnation numbers* so a falsely suspected node can refute the rumour
about itself.  This module implements that state machine as a pure,
deterministic object: :class:`SwimCore` consumes ``(sender, packet,
now)`` tuples and clock ticks, and returns the packets it wants sent as
``(dest, dict)`` pairs.  Nothing here touches an engine, a socket or a
kernel — which is exactly what lets the *same* protocol code run

- inside a full :class:`~repro.core.algorithm.Algorithm` on either
  engine backend (:mod:`repro.membership.swim`), and
- inside the slotted round simulator at 10^4-10^5 nodes
  (:mod:`repro.membership.slotted`).

Beyond classic SWIM, pings and acks also carry a small uniform *sample*
of the sender's alive view (the Tribler BuddyCast idiom): pure
event-rumours cannot spread knowledge from an adversarial initial
topology (a line knows only its neighbours and nothing ever changes
state), whereas view-sample anti-entropy doubles every node's horizon
each protocol period.

Wire packets are plain JSON-able dicts with one-letter keys::

    {"k": "p", "s": 7, "r": [...], "m": [...]}   ping
    {"k": "a", "s": 7, "r": [...], "m": [...]}   ack  (+"t" when relayed)
    {"k": "q", "s": 7, "t": "ip:port", "r": []}  ping-req (probe t for me)
    {"k": "g", "r": [...]}                       rumour blast (leave/refute)

Rumours are ``[node, state, incarnation]`` triples; samples are lists of
``ip:port`` strings.
"""

from __future__ import annotations

import heapq
import math
import random
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Callable

from repro.core.ids import NodeId

__all__ = ["ALIVE", "SUSPECT", "DEAD", "LEFT", "Member", "SwimConfig", "SwimCore"]

#: member states, in escalation order
ALIVE, SUSPECT, DEAD, LEFT = 0, 1, 2, 3

STATE_NAMES = ("alive", "suspect", "dead", "left")

# Interning caches: rumour/sample entries cross the wire as "ip:port"
# strings and are parsed/rendered once per piggybacked entry, which at
# slotted-simulator scale (10^4-10^5 nodes) dominates the round cost.
# Bounded like the codec caches in repro.core.ids.
_PARSE_CACHE: dict[str, NodeId] = {}
_STR_CACHE: dict[NodeId, str] = {}
_INTERN_LIMIT = 1 << 18


def _parse(text: str) -> NodeId:
    node = _PARSE_CACHE.get(text)
    if node is None:
        node = NodeId.parse(text)
        if len(_PARSE_CACHE) < _INTERN_LIMIT:
            _PARSE_CACHE[text] = node
    return node


def _text(node: NodeId) -> str:
    text = _STR_CACHE.get(node)
    if text is None:
        text = str(node)
        if len(_STR_CACHE) < _INTERN_LIMIT:
            _STR_CACHE[node] = text
    return text


@dataclass
class SwimConfig:
    """Tunables of the membership protocol (times in seconds)."""

    #: protocol period T: one randomized probe per period
    period: float = 1.0
    #: how long a direct ping may stay unacked before indirect probing
    ping_timeout: float = 0.35
    #: number of relays asked to ping-req an unresponsive target
    indirect_probes: int = 2
    #: suspicion window, as a multiple of ``period`` — an unrefuted
    #: suspect is declared dead after ``suspicion_mult * period``
    suspicion_mult: float = 3.0
    #: rumours piggybacked per outgoing ping/ack
    piggyback: int = 12
    #: each rumour is retransmitted ``ceil(retransmit_mult * log2(n))`` times
    retransmit_mult: float = 3.0
    #: alive-view sample entries carried by each ping/ack (anti-entropy)
    sample_size: int = 4
    #: total probe window in seconds (direct + indirect) before a target
    #: is suspected; ``None`` means ``max(period, 2 * ping_timeout)``.
    #: Raise it when link latency is a whole protocol period (the
    #: slotted simulator) so the indirect verdict can make it home.
    probe_window: float | None = None
    #: hard bound on the membership view (alive + suspect members)
    max_view: int = 4096
    #: how long dead/left graves are retained to block stale rumours.
    #: Graves live in a separate bounded store so immunization memory
    #: never competes with live members for view slots — pruning graves
    #: while stale-alive gossip still circulates makes the staleness
    #: endemic (a rotating susceptible population), so keep this well
    #: above the rumour die-out time.
    dead_retention: float = 600.0
    #: hard bound on retained graves (oldest evicted first)
    grave_capacity: int = 4096


@dataclass
class Member:
    """What one node believes about one other node."""

    __slots__ = ("state", "incarnation", "since", "deadline")

    state: int
    incarnation: int
    since: float        # time of the last state change
    deadline: float     # suspicion expiry (only meaningful while SUSPECT)


@dataclass
class _Probe:
    """An in-flight failure-detection probe awaiting its ack."""

    __slots__ = ("target", "direct_deadline", "final_deadline", "indirect_sent")

    target: NodeId
    direct_deadline: float
    final_deadline: float
    indirect_sent: bool


class _RumorQueue:
    """Bounded-retransmit rumour buffer, freshest-first.

    SWIM prefers the least-transmitted rumour when filling piggyback
    space.  A lazy max-heap keyed on remaining budget gives O(log m)
    take/decrement without rescanning the queue per packet.
    """

    __slots__ = ("_rumors", "_heap", "_tick")

    def __init__(self) -> None:
        self._rumors: dict[NodeId, list] = {}  # node -> [state, inc, remaining]
        self._heap: list[tuple[int, int, NodeId]] = []
        self._tick = 0

    def __len__(self) -> int:
        return len(self._rumors)

    def put(self, node: NodeId, state: int, inc: int, budget: int) -> None:
        self._rumors[node] = [state, inc, budget]
        self._tick += 1
        heapq.heappush(self._heap, (-budget, self._tick, node))

    def discard(self, node: NodeId) -> None:
        self._rumors.pop(node, None)

    def take(self, k: int) -> list[list]:
        """Up to ``k`` distinct rumours as wire triples, decrementing budgets."""
        if not self._rumors or k <= 0:
            return []
        out: list[list] = []
        taken: set[NodeId] = set()
        repush: list[tuple[int, int, NodeId]] = []
        heap = self._heap
        while heap and len(out) < k:
            neg, tick, node = heapq.heappop(heap)
            rumor = self._rumors.get(node)
            if rumor is None or rumor[2] != -neg or node in taken:
                continue  # stale heap entry (rumor replaced or already taken)
            out.append([_text(node), rumor[0], rumor[1]])
            taken.add(node)
            rumor[2] -= 1
            if rumor[2] > 0:
                self._tick += 1
                repush.append((-rumor[2], self._tick, node))
            else:
                del self._rumors[node]
        for entry in repush:
            heapq.heappush(heap, entry)
        return out


class SwimCore:
    """The deterministic SWIM state machine for one node.

    The caller owns time and the wire: call :meth:`tick` whenever the
    clock advances (any frequency; the period fires internally) and
    :meth:`handle` for every received packet.  Both return a list of
    ``(dest, packet)`` pairs to transmit.  State changes are appended to
    :attr:`events` as ``(what, node, incarnation)`` tuples for the host
    to drain (``known_hosts`` updates, telemetry, assertions).
    """

    def __init__(
        self,
        node_id: NodeId,
        config: SwimConfig | None = None,
        rng: random.Random | None = None,
        now: float = 0.0,
        rank: "Callable[[NodeId], float] | None" = None,
        embed: "Callable[[NodeId], int] | None" = None,
        circle: int = 0,
    ) -> None:
        self.node_id = node_id
        self.config = config if config is not None else SwimConfig()
        self.rng = rng if rng is not None else random.Random(0)
        #: optional position of each node on a circle of size ``circle``
        #: (a consistent-hashing ring).  When set, the anti-entropy
        #: samples sent to a peer are half *directed* — the view entries
        #: nearest the peer's position, found by bisect over a sorted
        #: alive list — and half uniform for global mixing.  This is the
        #: T-Man exchange rule: uniform samples alone deliver a constant
        #: number of new names per round (linear view growth), directed
        #: samples let every node home in on its own neighbourhood in
        #: O(log n) rounds.
        self.embed = embed
        self.circle = circle
        self._pos_sorted: list[tuple[int, NodeId]] = []  # alive, by position
        #: optional view-retention bias: when the bounded view is full, a
        #: newcomer with a *smaller* rank evicts the worst-ranked alive
        #: member (T-Man-style proximity selection).  With an embedding,
        #: the rank defaults to symmetric ring proximity, so the members
        #: worth links are exactly the members the bounded view retains;
        #: without a rank the view is first-come and full views refuse
        #: newcomers.
        if rank is None and embed is not None:
            half = circle // 2

            def rank(member: NodeId, _me: int = embed(node_id) % circle) -> float:
                d = (embed(member) - _me) % circle
                return float(d if d <= half else circle - d)

        self.rank = rank
        self._rank_heap: list[tuple[float, NodeId]] = []
        self.incarnation = 0
        self.view: dict[NodeId, Member] = {}
        self.events: list[tuple[str, NodeId, int]] = []
        self.counters: dict[str, int] = {
            "pings": 0, "acks": 0, "ping_reqs": 0, "rumors_rx": 0,
            "suspects": 0, "refutes": 0, "deaths": 0, "joins": 0,
            "leaves": 0, "view_overflow": 0,
        }
        self._rumors = _RumorQueue()
        #: dead/left members: node -> [state, incarnation, since].
        #: Insertion-ordered by death time (refreshed entries re-append),
        #: so pruning and capacity eviction pop from the front.
        self._graves: dict[NodeId, list] = {}
        self._alive_list: list[NodeId] = []
        self._alive_pos: dict[NodeId, int] = {}
        self._pending: dict[int, _Probe] = {}
        self._suspects: dict[NodeId, None] = {}  # insertion-ordered set
        self._relay: dict[int, tuple[NodeId, int, NodeId, float]] = {}
        self._seq = 0
        self._probe_flip = False
        self._next_period = now  # first tick probes immediately
        self._next_prune = now + self.config.dead_retention

    # ------------------------------------------------------------ inspection

    def alive_members(self) -> list[NodeId]:
        """Members currently believed alive (excluding this node)."""
        return list(self._alive_list)

    def n_alive(self) -> int:
        return len(self._alive_list)

    def is_alive(self, node: NodeId) -> bool:
        return node in self._alive_pos

    def state_of(self, node: NodeId) -> int | None:
        member = self.view.get(node)
        if member is not None:
            return member.state
        grave = self._graves.get(node)
        return None if grave is None else grave[0]

    def drain_events(self) -> list[tuple[str, NodeId, int]]:
        events, self.events = self.events, []
        return events

    # ------------------------------------------------------------- seeding

    def note_member(self, node: NodeId, force: bool = False) -> None:
        """Seed knowledge of ``node`` (bootstrap/contact), without a rumour.

        ``force`` pops an existing grave first — the desperation path of
        an isolated node re-contacting its bootstrap seeds, where "I
        believe every seed is dead" must not beat "I have nobody else".
        """
        if node == self.node_id or node in self.view:
            return
        if node in self._graves:
            if not force:
                return
            del self._graves[node]
        self._apply(node, ALIVE, 0, self._next_period, rumor=False)

    def announce_join(self) -> None:
        """Start gossiping this node's own arrival (piggybacked alive rumour)."""
        self._queue_rumor(self.node_id, ALIVE, self.incarnation)

    def rejoin(self) -> None:
        """Re-announce after isolation or a false death.

        Bumps the incarnation first (the Serf rejoin idiom): the cluster
        may hold a grave for us at our old incarnation, and only a
        strictly newer alive rumour can reopen it.
        """
        self.incarnation += 1
        self._queue_rumor(self.node_id, ALIVE, self.incarnation)

    # ---------------------------------------------------------------- clock

    def tick(self, now: float) -> list[tuple[NodeId, dict]]:
        """Advance timers; returns the packets to transmit."""
        out: list[tuple[NodeId, dict]] = []
        self._expire_probes(now, out)
        self._expire_suspects(now)
        if now >= self._next_period:
            # Drift-free cadence, but never schedule into the past: a
            # host that stalled longer than one period resumes cleanly.
            self._next_period = max(self._next_period + self.config.period,
                                    now + 1e-9)
            if now >= self._next_prune:
                # Amortized: one grave sweep per retention window.
                self._next_prune = now + self.config.dead_retention
                self._prune_graves(now)
            if self._relay:
                self._relay = {
                    seq: entry for seq, entry in self._relay.items()
                    if entry[3] > now
                }
            self._probe_next(now, out)
        return out

    def _probe_next(self, now: float, out: list) -> None:
        if not self._alive_list:
            return
        target = self._probe_target()
        seq = self._next_seq()
        window = self.config.probe_window
        if window is None:
            window = max(self.config.period, self.config.ping_timeout * 2)
        self._pending[seq] = _Probe(
            target,
            now + self.config.ping_timeout,
            now + window,
            False,
        )
        self.counters["pings"] += 1
        out.append((target, self._packet("p", seq, target)))

    def _probe_target(self) -> NodeId:
        """Next failure-detection target.

        Uniform choice alone means a crashed *successor* evades
        re-probing for O(view) periods — the one member whose death the
        ring corrector must learn about promptly.  With an embedding,
        every other probe therefore goes to the clockwise-adjacent
        member (the Chord stabilization heartbeat); the rest stay
        uniform so global detection keeps SWIM's expected bounds.
        """
        if self.embed is not None and self._pos_sorted:
            self._probe_flip = not self._probe_flip
            if self._probe_flip:
                pos = self._pos_sorted
                i = bisect_left(pos, (self.embed(self.node_id) % self.circle,
                                      self.node_id))
                return pos[i % len(pos)][1]
        return self.rng.choice(self._alive_list)

    def _expire_probes(self, now: float, out: list) -> None:
        if not self._pending:
            return
        done: list[int] = []
        for seq, probe in self._pending.items():
            if not probe.indirect_sent and now >= probe.direct_deadline:
                probe.indirect_sent = True
                relays = [
                    n for n in self.rng.sample(
                        self._alive_list,
                        min(len(self._alive_list), self.config.indirect_probes + 1),
                    )
                    if n != probe.target
                ][: self.config.indirect_probes]
                for relay in relays:
                    self.counters["ping_reqs"] += 1
                    out.append((relay, {
                        "k": "q", "s": seq, "t": _text(probe.target),
                        "r": self._rumors.take(self.config.piggyback),
                    }))
            if now >= probe.final_deadline:
                done.append(seq)
        for seq in done:
            probe = self._pending.pop(seq)
            self._suspect(probe.target, now)

    def _expire_suspects(self, now: float) -> None:
        if not self._suspects:
            return
        expired = [
            node for node in self._suspects
            if (member := self.view.get(node)) is not None
            and member.state == SUSPECT and now >= member.deadline
        ]
        for node in expired:
            member = self.view[node]
            self._apply(node, DEAD, member.incarnation, now)

    def _prune_graves(self, now: float) -> None:
        retention = self.config.dead_retention
        stale = []
        for node, grave in self._graves.items():
            if now - grave[2] <= retention:
                break  # insertion-ordered by death time: rest are fresh
            stale.append(node)
        for node in stale:
            del self._graves[node]

    def _grave_add(self, node: NodeId, state: int, inc: int, now: float) -> None:
        self._graves.pop(node, None)  # re-append keeps death-time order
        self._graves[node] = [state, inc, now]
        if len(self._graves) > self.config.grave_capacity:
            self._graves.pop(next(iter(self._graves)))

    # ---------------------------------------------------------------- wire in

    def handle(self, sender: NodeId, packet: dict, now: float) -> list[tuple[NodeId, dict]]:
        """Process one received packet; returns the packets to transmit."""
        out: list[tuple[NodeId, dict]] = []
        if sender != self.node_id and sender not in self.view:
            grave = self._graves.get(sender)
            if grave is None:
                self._apply(sender, ALIVE, 0, now, rumor=False)
            else:
                # A packet from the grave is usually in-flight traffic
                # from a freshly-dead node — but it may be a falsely
                # declared node that never heard its own obituary.  Send
                # the obituary back: a live sender will refute it with a
                # bumped incarnation, closing SWIM's refutation loop
                # even for nodes the suspicion rumour never reached.
                out.append((sender, {
                    "k": "g", "r": [[_text(sender), grave[0], grave[1]]],
                }))
        rumors = packet.get("r")
        if rumors:
            self._apply_rumors(rumors, now)
        sample = packet.get("m")
        if sample:
            self._apply_sample(sample, now)
        kind = packet.get("k")
        if kind == "p":
            self.counters["acks"] += 1
            out.append((sender, self._packet("a", packet["s"], sender)))
        elif kind == "a":
            self._on_ack(sender, packet, now, out)
        elif kind == "q":
            target = _parse(packet["t"])
            rseq = self._next_seq()
            self._relay[rseq] = (
                sender, packet["s"], target, now + 2 * self.config.period
            )
            out.append((target, self._packet("p", rseq, target)))
        # "g" carries rumours only; already applied above.
        return out

    def _on_ack(self, sender: NodeId, packet: dict, now: float, out: list) -> None:
        seq = packet["s"]
        relay = self._relay.pop(seq, None)
        if relay is not None:
            # We pinged on someone's behalf; forward the verdict home.
            origin, origin_seq, target, _expiry = relay
            ack = self._packet("a", origin_seq, origin)
            ack["t"] = _text(target)
            out.append((origin, ack))
            return
        self._pending.pop(seq, None)

    def _apply_rumors(self, rumors: list, now: float) -> None:
        self.counters["rumors_rx"] += len(rumors)
        for text, state, inc in rumors:
            self._apply(_parse(text), state, inc, now)

    def _apply_sample(self, sample: list, now: float) -> None:
        for text in sample:
            node = _parse(text)
            if (node != self.node_id and node not in self.view
                    and node not in self._graves):
                # The grave check is the immunization that keeps
                # stale-alive gossip from becoming endemic: a sample
                # naming a member we know is dead is simply stale.
                self._apply(node, ALIVE, 0, now, rumor=False)

    # --------------------------------------------------------------- the FSM

    def _apply(
        self, node: NodeId, state: int, inc: int, now: float, rumor: bool = True
    ) -> bool:
        """Apply one membership assertion under SWIM's override rules."""
        if node == self.node_id:
            self._about_self(state, inc)
            return False
        grave = self._graves.get(node)
        if grave is not None:
            if state == ALIVE and inc > grave[1]:
                # Rejoin: the node came back under a newer incarnation.
                del self._graves[node]
            elif state >= DEAD and inc > grave[1]:
                grave[1] = inc  # refresh immunity; no event, no re-rumour
                return False
            else:
                return False
        member = self.view.get(node)
        if member is None:
            # A suspicion about a node we never knew is not actionable —
            # and treating it as knowledge creates an endemic rumour
            # cycle: suspect -> dead -> grave pruned -> reinfected by
            # the same stale rumour, forever.
            if state == SUSPECT:
                return False
            if state >= DEAD:
                # Unknown-and-dead: keep the grave (it blocks stale
                # alive gossip) but do NOT re-rumour — we never believed
                # the node alive, so nothing changed that peers need to
                # hear from us, and re-queueing with a fresh budget is
                # what keeps rumours about long-dead nodes endemic.
                self._grave_add(node, state, inc, now)
                self.counters["deaths" if state == DEAD else "leaves"] += 1
                self.events.append((STATE_NAMES[state], node, inc))
                return True
            if not self._admit_room(node, now):
                return False
            self.view[node] = Member(state, inc, now, 0.0)
            self._alive_add(node)
            self.counters["joins"] += 1
            self.events.append(("join", node, inc))
            if rumor:
                self._queue_rumor(node, state, inc)
            return True
        if not _overrides(state, inc, member.state, member.incarnation):
            return False
        was_alive = member.state == ALIVE
        if state >= DEAD:
            del self.view[node]
            if was_alive:
                self._alive_remove(node)
            self._suspects.pop(node, None)
            self._grave_add(node, state, inc, now)
            self.counters["deaths" if state == DEAD else "leaves"] += 1
            self.events.append((STATE_NAMES[state], node, inc))
            if rumor:
                self._queue_rumor(node, state, inc)
            return True
        member.state, member.incarnation, member.since = state, inc, now
        if state == ALIVE:
            if not was_alive:
                self._alive_add(node)
                self._suspects.pop(node, None)
                self.counters["refutes"] += 1
                self.events.append(("alive", node, inc))
        else:  # SUSPECT
            member.deadline = now + self._suspicion_timeout()
            self._suspects[node] = None
            if was_alive:
                self._alive_remove(node)
            self.counters["suspects"] += 1
            self.events.append(("suspect", node, inc))
        if rumor:
            self._queue_rumor(node, state, inc)
        return True

    def _about_self(self, state: int, inc: int) -> None:
        """Someone is spreading a rumour about *us*; refute if damaging."""
        if state != ALIVE and inc >= self.incarnation:
            self.incarnation = inc + 1
            self.counters["refutes"] += 1
            self.events.append(("refute", self.node_id, self.incarnation))
            self._queue_rumor(self.node_id, ALIVE, self.incarnation)

    def _suspect(self, node: NodeId, now: float) -> None:
        """A probe of ours went unanswered: raise local suspicion."""
        member = self.view.get(node)
        if member is not None and member.state == ALIVE:
            self._apply(node, SUSPECT, member.incarnation, now)

    def fail_fast(self, node: NodeId, now: float) -> None:
        """Direct evidence of failure (loud link error): suspect at once."""
        self._suspect(node, now)

    # ------------------------------------------------------------ leave/blast

    def announce_leave(self, now: float) -> list[tuple[NodeId, dict]]:
        """Gossip a graceful departure; the host stops the node afterwards."""
        self.incarnation += 1
        blast = {"k": "g",
                 "r": [[_text(self.node_id), LEFT, self.incarnation]]
                 + self._rumors.take(self.config.piggyback)}
        fanout = min(len(self._alive_list), max(3, self.config.piggyback // 2))
        return [(n, blast) for n in self.rng.sample(self._alive_list, fanout)]

    # ---------------------------------------------------------------- helpers

    def _packet(self, kind: str, seq: int, dest: NodeId | None = None) -> dict:
        return {
            "k": kind, "s": seq,
            "r": self._rumors.take(self.config.piggyback),
            "m": self._view_sample(dest),
        }

    def _view_sample(self, dest: NodeId | None = None) -> list[str]:
        k = self.config.sample_size
        alive = self._alive_list
        if not alive or k <= 0:
            return []
        if len(alive) <= k:
            return [_text(n) for n in alive]
        if self.embed is None or dest is None:
            return [_text(n) for n in self.rng.sample(alive, k)]
        # Directed half: the entries the *destination* most wants —
        # those ring-nearest to it — via bisect over the sorted alive
        # positions; uniform half for global mixing (pure greedy
        # exchange can silo the overlay).
        picked = self._nearest(dest, k - k // 2)
        # Top up with random picks; duplicates are just skipped, which
        # is far cheaper than random.sample's bookkeeping on this path.
        # An insertion-ordered dict, not a set: the sample goes out in
        # pick order, never in the salted hash order of the NodeIds.
        randrange = self.rng.randrange
        m = len(alive)
        for _ in range(k):
            if len(picked) >= k:
                break
            n = alive[randrange(m)]
            if n != dest:
                picked[n] = None
        return [_text(n) for n in picked]

    def _nearest(self, dest: NodeId, k: int) -> dict[NodeId, None]:
        """The ``k`` alive members ring-nearest to ``dest`` (two-pointer),
        nearest first."""
        pos = self._pos_sorted
        m = len(pos)
        if not m or k <= 0:
            return {}
        circle = self.circle
        target = self.embed(dest) % circle
        right = bisect_left(pos, (target, dest))
        left = right - 1
        out: dict[NodeId, None] = {}
        steps = 0
        while len(out) < k and steps < m:
            d_right = (pos[right % m][0] - target) % circle
            d_left = (target - pos[left % m][0]) % circle
            if d_right <= d_left:
                node = pos[right % m][1]
                right += 1
            else:
                node = pos[left % m][1]
                left -= 1
            steps += 1
            if node != dest:
                out[node] = None
        return out

    def _queue_rumor(self, node: NodeId, state: int, inc: int) -> None:
        budget = max(3, math.ceil(
            self.config.retransmit_mult * math.log2(max(2, len(self._alive_list) + 1))
        ))
        self._rumors.put(node, state, inc, budget)

    def _suspicion_timeout(self) -> float:
        return self.config.suspicion_mult * self.config.period

    def _admit_room(self, newcomer: NodeId, now: float) -> bool:
        """Make room for ``newcomer`` under ``max_view``; False if full."""
        if len(self.view) < self.config.max_view:
            return True
        # The refusal path must be O(1)-ish: at view saturation every
        # unknown sample/rumour entry lands here, so anything that
        # scans the view per refusal turns the protocol quadratic.
        if self.rank is not None and self._evict_worse_than(newcomer):
            return True
        self.counters["view_overflow"] += 1
        return False

    def _evict_worse_than(self, newcomer: NodeId) -> bool:
        """Drop the worst-ranked alive member if ``newcomer`` ranks better.

        The heap is lazy: entries for members that died, were evicted or
        got re-ranked are discarded on pop.  Forgetting an alive member
        is not a belief change, so no rumour and no event fire.
        """
        heap = self._rank_heap
        while heap:
            neg_rank, node = heap[0]
            member = self.view.get(node)
            if member is None or member.state != ALIVE:
                heapq.heappop(heap)
                continue
            if -neg_rank <= self.rank(newcomer):
                return False  # the newcomer is no improvement
            heapq.heappop(heap)
            del self.view[node]
            self._alive_remove(node)
            self._rumors.discard(node)
            return True
        return False

    def _alive_add(self, node: NodeId) -> None:
        if node not in self._alive_pos:
            self._alive_pos[node] = len(self._alive_list)
            self._alive_list.append(node)
            if self.rank is not None:
                heapq.heappush(self._rank_heap, (-self.rank(node), node))
            if self.embed is not None:
                insort(self._pos_sorted, (self.embed(node) % self.circle, node))

    def _alive_remove(self, node: NodeId) -> None:
        pos = self._alive_pos.pop(node, None)
        if pos is None:
            return
        last = self._alive_list.pop()
        if last != node:
            self._alive_list[pos] = last
            self._alive_pos[last] = pos
        if self.embed is not None:
            entry = (self.embed(node) % self.circle, node)
            i = bisect_left(self._pos_sorted, entry)
            if i < len(self._pos_sorted) and self._pos_sorted[i] == entry:
                del self._pos_sorted[i]

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq


def _overrides(state: int, inc: int, cur_state: int, cur_inc: int) -> bool:
    """SWIM's rumour precedence (Section 4.2), with rejoin semantics.

    - ``alive`` needs a strictly newer incarnation, whatever the current
      state — this is both refutation (over suspect) and rejoin (over a
      dead tombstone, after the returning node bumps past it).
    - ``suspect`` overrides alive at the same incarnation (that is the
      whole point of suspicion) but never a tombstone.
    - ``dead``/``left`` override alive/suspect at the same incarnation,
      but not an already-final tombstone, and never a *newer* alive.
    """
    if state == ALIVE:
        return inc > cur_inc
    if state == SUSPECT:
        if cur_state == ALIVE:
            return inc >= cur_inc
        if cur_state == SUSPECT:
            return inc > cur_inc
        return False
    # DEAD / LEFT
    return cur_state < DEAD and inc >= cur_inc
