"""Domino teardown under *concurrent* failures.

Two upstream peers of the same relay fail at the same virtual instant;
afterwards every piece of per-peer state on the relay — sender links,
receiver ports, throttle entries, pending forwards, app routing tables,
stats maps — must be free of the dead NodeIds, and unaffected streams
must keep flowing.
"""

from repro.core.algorithm import Algorithm, Disposition
from repro.core.bandwidth import BandwidthSpec
from repro.core.message import Message
from repro.sim.engine import EngineConfig
from repro.sim.failure import FailureSchedule
from repro.sim.network import NetworkConfig, SimNetwork

KB = 1000.0


class AppRouter(Algorithm):
    """Forward each application's data along a per-app downstream set."""

    def __init__(self, seed=None):
        super().__init__(seed=seed)
        self.routes: dict[int, list] = {}
        self.received = 0
        self.broken_sources: list[int] = []

    def on_data(self, msg: Message) -> Disposition:
        self.received += 1
        for dest in self.routes.get(msg.app, []):
            self.send(msg, dest)
        return Disposition.DONE

    def on_broken_source(self, msg: Message) -> Disposition:
        self.broken_sources.append(int(msg.fields().get("app", msg.app)))
        return Disposition.DONE


def build():
    """S, A, B feed relay R; R fans out to A, B and sink C.

    A and B are simultaneously *upstreams* of R (apps 1 and 2) and
    *downstreams* of R (copies of app 3), so their death exercises both
    sides of the relay's teardown in one event.
    """
    net = SimNetwork(NetworkConfig(engine=EngineConfig(buffer_capacity=8)))
    algs = {name: AppRouter() for name in "SABRC"}
    ids = {}
    for name in "SABRC":
        bandwidth = BandwidthSpec(up=400 * KB) if name in "SAB" else None
        ids[name] = net.add_node(algs[name], name=name, bandwidth=bandwidth)
    algs["S"].routes = {3: [ids["R"]]}
    algs["A"].routes = {1: [ids["R"]]}
    algs["B"].routes = {2: [ids["R"]]}
    algs["R"].routes = {
        1: [ids["C"]],
        2: [ids["C"]],
        3: [ids["A"], ids["B"], ids["C"]],
    }
    net.start()
    # Choke R's links to A and B so forwards to them defer and pending
    # forwards referencing A/B pile up on R's receiver ports.
    relay = net.engine("R")
    relay.throttle.set_link(ids["A"], 5 * KB)
    relay.throttle.set_link(ids["B"], 5 * KB)
    net.observer.deploy_source(ids["A"], app=1, payload_size=5000)
    net.observer.deploy_source(ids["B"], app=2, payload_size=5000)
    net.observer.deploy_source(ids["S"], app=3, payload_size=5000)
    return net, ids, algs


def test_two_upstreams_die_in_the_same_round_no_stale_state():
    net, ids, algs = build()
    relay = net.engine("R")
    a, b, c, s = ids["A"], ids["B"], ids["C"], ids["S"]

    net.run(8)
    # Preconditions: the relay is loaded on every axis we later assert on.
    assert algs["C"].received > 0
    assert {p.peer for p in relay._scheduler.ports} == {s, a, b}
    assert set(relay._senders) >= {a, b, c}
    assert a in relay.throttle._links and b in relay.throttle._links
    pending_targets = {
        dest
        for port in relay._scheduler.ports
        for forward in port.pending
        for dest in forward.remaining
    }
    assert pending_targets & {a, b}  # the chokes really created backlog

    # Both upstreams die at the same virtual instant.
    schedule = FailureSchedule().kill_node(8.5, "A").kill_node(8.5, "B")
    schedule.arm(net)
    net.run(6)

    # No stale NodeIds anywhere on the relay.
    for mapping in (relay._out, relay._senders, relay._upstream_links,
                    relay._last_recv_at):
        assert a not in mapping and b not in mapping, mapping
    assert {p.peer for p in relay._scheduler.ports} == {s}
    assert a not in relay.throttle._links and b not in relay.throttle._links
    for port in relay._scheduler.ports:
        for forward in port.pending:
            assert set(forward.remaining) <= {c}
    # The domino's app sets live on the ports and links checked above,
    # so they left with A's and B's; STATUS `apps` is checked below.

    # The domino reached the sink for both dead apps...
    assert sorted(set(algs["C"].broken_sources)) == [1, 2]
    # ... while the surviving stream kept flowing through the relay.
    before = algs["C"].received
    net.run(5)
    assert algs["C"].received > before

    status = relay._status_report().fields()
    dead = {str(a), str(b)}
    assert not (set(status["recv_rates"]) & dead)
    assert not (set(status["send_rates"]) & dead)
    assert not (set(status["upstreams"]) & dead)
    assert not (set(status["downstreams"]) & dead)
    # Apps 1 and 2 only ever arrived through A and B.
    assert status["apps"] == [3]
