"""Chaos-injection suite: deterministic faults against real sockets.

Every scenario runs across three fixed seeds and ends with a convergence
check: all survivors reconnected or torn down, engines stopped cleanly,
no peer state leaked, and no asyncio task left pending.
"""

import asyncio

import pytest

from repro.algorithms.forwarding import CopyForwardAlgorithm, SinkAlgorithm
from repro.cluster.scenarios import wait_until
from repro.core.ids import NodeId
from repro.core.message import Message
from repro.core.msgtypes import MsgType
from repro.errors import ConfigurationError, UnknownNodeError
from repro.net.chaos import ChaosController
from repro.net.engine import NetEngineConfig
from repro.net.resilience import ResilienceConfig
from repro.net.virtual import VirtualHost
from repro.sim.failure import FailureSchedule
from repro.telemetry import Telemetry
from repro.telemetry.tracing import EventType

SEEDS = [101, 202, 303]

#: fast ladder so the suite stays quick: suspicion after 150 ms of
#: silence, death 200 ms after an unanswered probe
FAST = dict(connect_retries=3, backoff_base=0.02, backoff_max=0.1,
            inactivity_timeout=0.15, probe_timeout=0.2)


def watch_config(seed: int, telemetry: Telemetry | None = None) -> NetEngineConfig:
    return NetEngineConfig(
        telemetry=telemetry, resilience=ResilienceConfig(seed=seed, **FAST))


class BrokenLinkRecorder(SinkAlgorithm):
    def __init__(self):
        super().__init__()
        self.broken = []

    def on_broken_link(self, msg):
        fields = msg.fields()
        self.broken.append((fields["peer"], fields["direction"]))
        return super().on_broken_link(msg)


def run_converging(coro):
    """Run a scenario, then assert the loop wound down with no leaks."""

    async def wrapper():
        result = await coro
        # Give cancelled tasks one cycle to unwind, then leak-check.
        await asyncio.sleep(0)
        current = asyncio.current_task()
        pending = [t for t in asyncio.all_tasks() if t is not current and not t.done()]
        assert pending == [], f"leaked tasks: {pending}"
        return result

    return asyncio.run(wrapper())


async def converged(cluster: VirtualHost) -> None:
    """Stop the fleet and assert per-engine state drained."""
    await cluster.stop()
    for engine in cluster.engines():
        assert not engine.running
        assert engine._peers == {}
        assert engine._scheduler.ports == []
        assert engine._dialing == {}


# ------------------------------------------------------------------- scenarios


@pytest.mark.parametrize("seed", SEEDS)
def test_stall_detected_via_inactivity_probe_ladder(seed):
    """A silent stall (no socket error) is confirmed dead by the watchdog
    within the configured window, and tears down exactly like a loud cut."""

    async def scenario():
        telemetry = Telemetry()
        cluster = VirtualHost(chaos=ChaosController(seed=seed))
        src_alg, sink_alg = CopyForwardAlgorithm(), BrokenLinkRecorder()
        src = cluster.add_node(src_alg, "src", watch_config(seed))
        sink = cluster.add_node(sink_alg, "sink", watch_config(seed, telemetry))
        await cluster.start()
        src_alg.set_downstreams([sink.node_id])
        src.start_source(app=1, payload_size=1000)
        await wait_until(lambda: sink_alg.received > 5, timeout=2.0)
        assert sink_alg.received > 5

        cluster.chaos.stall_link(src.node_id, sink.node_id)
        # Detection budget: inactivity_timeout + probe_timeout + slack.
        ins = sink._ins
        detected = await wait_until(
            # Death is counted by the watchdog, the BROKEN_LINK reaches
            # the algorithm via the engine loop a beat later: wait for both.
            lambda: ins.n_inactivity_deaths >= 1 and bool(sink_alg.broken),
            timeout=FAST["inactivity_timeout"] + FAST["probe_timeout"] + 1.5,
        )
        assert detected
        # The sink walked the full ladder and logged it.
        assert ins.n_suspects >= 1
        assert ins.n_probes >= 1
        kinds = {e.event for e in telemetry.tracer}
        assert {EventType.LINK_SUSPECT, EventType.LINK_PROBE,
                EventType.LINK_DEAD} <= kinds
        # The algorithm saw the same coherent teardown as a loud failure.
        assert (str(src.node_id), "both") in sink_alg.broken
        # Convergence: the supervisor redials a clean link and the
        # stream recovers (faults are one-shot, as in the sim).
        after_teardown = sink_alg.received
        recovered = await wait_until(
            lambda: sink_alg.received > after_teardown + 5, timeout=2.0)
        assert recovered
        await converged(cluster)

    run_converging(scenario())


@pytest.mark.parametrize("seed", SEEDS)
def test_stall_and_loud_cut_produce_identical_teardown(seed):
    """Trace comparison: the notifications an algorithm receives from a
    confirmed stall equal those from a mid-stream reset."""

    async def outcome(fault):
        cluster = VirtualHost(chaos=ChaosController(seed=seed))
        src_alg, sink_alg = CopyForwardAlgorithm(), BrokenLinkRecorder()
        src = cluster.add_node(src_alg, "src", watch_config(seed))
        sink = cluster.add_node(sink_alg, "sink", watch_config(seed))
        await cluster.start()
        src_alg.set_downstreams([sink.node_id])
        src.start_source(app=1, payload_size=1000)
        await wait_until(lambda: sink_alg.received > 5, timeout=2.0)
        fault(cluster.chaos, src.node_id, sink.node_id)
        await wait_until(lambda: bool(sink_alg.broken), timeout=2.0)
        await asyncio.sleep(0.3)  # settle: a churn loop would add events
        # Normalize the peer to a role so the two runs compare.
        events = [("src", d) for p, d in sink_alg.broken if p == str(src.node_id)]
        await converged(cluster)
        return events

    async def scenario():
        stalled = await outcome(lambda c, a, b: c.stall_link(a, b))
        cut = await outcome(lambda c, a, b: c.cut_link(a, b))
        assert stalled == cut
        assert stalled == [("src", "both")]  # exactly one coherent teardown

    run_converging(scenario())


@pytest.mark.parametrize("seed", SEEDS)
def test_connection_refusal_exhausts_retry_budget(seed):
    async def scenario():
        chaos = ChaosController(seed=seed)
        cluster = VirtualHost(chaos=chaos)
        a = cluster.add_node(SinkAlgorithm(), "a", watch_config(seed))
        b = cluster.add_node(SinkAlgorithm(), "b", watch_config(seed))
        await cluster.start()
        chaos.refuse_connect(b.node_id)
        ok = await a.connect(b.node_id)
        assert not ok
        assert chaos.n_refusals == FAST["connect_retries"]
        # Lifting the fault lets the supervised dial through again.
        chaos.allow_connect(b.node_id)
        assert await a.connect(b.node_id)
        await converged(cluster)

    run_converging(scenario())


@pytest.mark.parametrize("seed", SEEDS)
def test_midstream_reset_fails_loudly_then_recovers(seed):
    async def scenario():
        cluster = VirtualHost(chaos=ChaosController(seed=seed))
        src_alg, sink_alg = BrokenLinkRecorder(), BrokenLinkRecorder()
        src = cluster.add_node(src_alg, "src", watch_config(seed))
        sink = cluster.add_node(sink_alg, "sink", watch_config(seed))
        await cluster.start()
        src_alg.add_downstream(sink.node_id)
        src.start_source(app=1, payload_size=1000)
        await wait_until(lambda: sink_alg.received > 5, timeout=2.0)
        cluster.chaos.cut_link(src.node_id, sink.node_id)
        # Loud on both sides: each engine fires one BROKEN_LINK.
        torn = await wait_until(
            lambda: bool(src_alg.broken) and bool(sink_alg.broken), timeout=1.5)
        assert torn
        assert (str(sink.node_id), "both") in src_alg.broken
        assert (str(src.node_id), "both") in sink_alg.broken
        # ... then the supervisor redials and the stream recovers.
        after = sink_alg.received
        recovered = await wait_until(lambda: sink_alg.received > after + 5,
                                     timeout=2.0)
        assert recovered
        await converged(cluster)

    run_converging(scenario())


@pytest.mark.parametrize("seed", SEEDS)
def test_truncated_frame_tears_the_link_down(seed):
    """Half a frame then reset: the receiver's mid-frame EOF path cleans up."""

    async def scenario():
        cluster = VirtualHost(chaos=ChaosController(seed=seed))
        src_alg, sink_alg = CopyForwardAlgorithm(), BrokenLinkRecorder()
        src = cluster.add_node(src_alg, "src", watch_config(seed))
        sink = cluster.add_node(sink_alg, "sink", watch_config(seed))
        await cluster.start()
        src_alg.set_downstreams([sink.node_id])
        assert await src.connect(sink.node_id)
        await asyncio.sleep(0.05)
        cluster.chaos.truncate_next(src.node_id, sink.node_id)
        src.start_source(app=1, payload_size=2000)
        torn = await wait_until(lambda: bool(sink_alg.broken), timeout=2.0)
        assert torn  # mid-frame EOF tore the link down on the receiver
        assert cluster.chaos.n_truncations == 1
        after = sink_alg.received
        recovered = await wait_until(lambda: sink_alg.received > after + 5,
                                     timeout=2.0)
        assert recovered  # clean redial; frames decode again
        await converged(cluster)

    run_converging(scenario())


def stage_burst(engine, dest: NodeId, count: int, payload: bytes = b"b" * 32) -> None:
    """Stage ``count`` frames in one go: the sender flushes them as one burst."""
    for seq in range(count):
        engine.send(Message(MsgType.DATA, engine.node_id, 1, payload, seq=seq), dest)


def quiet_config(seed: int) -> NetEngineConfig:
    """No watchdog: only the injected fault may bring the link down."""
    return NetEngineConfig(
        resilience=ResilienceConfig(seed=seed, connect_retries=3, backoff_base=0.02))


@pytest.mark.parametrize("seed", SEEDS)
def test_truncation_inside_a_burst_write_fails_the_link_and_counts_the_burst(seed):
    """A multi-frame flush is one transport write; truncated, it still ends
    in ``_peer_failed`` on both sides and every frame of it is counted."""

    async def scenario():
        cluster = VirtualHost(chaos=ChaosController(seed=seed))
        src_alg, sink_alg = BrokenLinkRecorder(), BrokenLinkRecorder()
        src = cluster.add_node(src_alg, "src", quiet_config(seed))
        sink = cluster.add_node(sink_alg, "sink", quiet_config(seed))
        await cluster.start()
        assert await src.connect(sink.node_id)
        await asyncio.sleep(0.05)
        cluster.chaos.truncate_next(src.node_id, sink.node_id)
        stage_burst(src, sink.node_id, 8)
        torn = await wait_until(
            lambda: bool(src_alg.broken) and bool(sink_alg.broken), timeout=2.0)
        assert torn
        assert cluster.chaos.n_truncations == 1
        assert (str(sink.node_id), "both") in src_alg.broken
        assert (str(src.node_id), "both") in sink_alg.broken
        # half a header left before the reset: nothing arrived, and the
        # sender counts the whole burst it could not flush
        assert sink_alg.received == 0
        assert src._lost_messages == 8
        await converged(cluster)

    run_converging(scenario())


@pytest.mark.parametrize("seed", SEEDS)
def test_cut_with_a_burst_in_hand_counts_the_frames_beyond_the_buffer(seed):
    """The receiver holds a parsed burst, parked on a full port buffer, when
    the link is reset: buffer *and* in-hand frames are counted lost."""

    async def scenario():
        cluster = VirtualHost(chaos=ChaosController(seed=seed))
        src_alg, sink_alg = BrokenLinkRecorder(), BrokenLinkRecorder()
        src = cluster.add_node(src_alg, "src", quiet_config(seed))
        # The sink is parked, neither reading nor writing, so it is its
        # watchdog's probe that runs into the reset.
        sink = cluster.add_node(sink_alg, "sink", NetEngineConfig(
            buffer_capacity=4, resilience=ResilienceConfig(seed=seed, **FAST)))
        await cluster.start()
        sink._switch_round = lambda: False  # the switch stalls: the buffer fills
        assert await src.connect(sink.node_id)
        stage_burst(src, sink.node_id, 30)
        parked = await wait_until(
            lambda: sink._scheduler.ports and len(sink._scheduler.ports[0].buffer) == 4,
            timeout=2.0)
        assert parked
        inbound = sink._scheduler.ports[0].stats.loss
        await asyncio.sleep(0.05)
        cluster.chaos.cut_link(src.node_id, sink.node_id)
        torn = await wait_until(
            lambda: bool(src_alg.broken) and bool(sink_alg.broken), timeout=2.0)
        assert torn
        await asyncio.sleep(0.05)  # the cancelled receiver unwinds and counts
        assert sink_alg.received == 0
        # 30 frames of 56 bytes ride one segment, so all of them were in
        # the buffer or in hand; what a reset leaves in the kernel is not
        assert 4 < inbound.messages <= 30
        await converged(cluster)

    run_converging(scenario())


@pytest.mark.parametrize("seed", SEEDS)
def test_delayed_accept_is_survived_by_the_dialer(seed):
    async def scenario():
        chaos = ChaosController(seed=seed)
        cluster = VirtualHost(chaos=chaos)
        a = cluster.add_node(SinkAlgorithm(), "a", watch_config(seed))
        b = cluster.add_node(SinkAlgorithm(), "b", watch_config(seed))
        await cluster.start()
        chaos.set_accept_delay(b.node_id, 0.3)
        loop = asyncio.get_running_loop()
        t0 = loop.time()
        ok = await a.connect(b.node_id)
        assert ok  # the dialer is not blocked by the remote hold
        # ... but b only registers the link once the held HELLO is read.
        registered = await wait_until(lambda: a.node_id in b._peers, timeout=1.5)
        elapsed = loop.time() - t0
        assert registered
        assert elapsed >= 0.28  # the accept really was held back
        await converged(cluster)

    run_converging(scenario())


@pytest.mark.parametrize("seed", SEEDS)
def test_failure_schedule_runs_against_the_cluster(seed):
    """The sim's declarative FailureSchedule drives real sockets too."""

    async def scenario():
        cluster = VirtualHost(chaos=ChaosController(seed=seed))
        src_alg = CopyForwardAlgorithm()
        sink_a, sink_b = BrokenLinkRecorder(), BrokenLinkRecorder()
        src = cluster.add_node(src_alg, "src", watch_config(seed))
        a = cluster.add_node(sink_a, "a", watch_config(seed))
        b = cluster.add_node(sink_b, "b", watch_config(seed))
        await cluster.start()
        src_alg.set_downstreams([a.node_id, b.node_id])
        src.start_source(app=1, payload_size=1000)
        await wait_until(lambda: sink_a.received > 3 and sink_b.received > 3,
                         timeout=2.0)

        schedule = FailureSchedule()
        schedule.stall_link(0.05, "src", "a").kill_node(0.2, "b")
        schedule.arm(cluster)

        done = await wait_until(
            lambda: bool(sink_a.broken) and not b.running, timeout=2.5)
        assert done
        assert cluster.chaos.n_stalls == 1  # the stall verb really fired
        assert (str(src.node_id), "both") in sink_a.broken  # ladder teardown
        assert b.node_id not in src._peers  # killed node torn down loudly
        await converged(cluster)

    run_converging(scenario())


class Announcer(SinkAlgorithm):
    """Leaves gracefully: the cluster waits out a grace period first."""

    def announce_leave(self) -> None:
        pass


def test_stop_settles_a_join_and_a_leave_fired_just_before_it():
    """``stop()`` with a join mid-start and a leave in its grace period:
    both run to their end first, then every engine — the late joiner
    included — is stopped, and no task is left behind."""

    async def scenario():
        cluster = VirtualHost(chaos=ChaosController(seed=1))
        cluster.add_node(Announcer(), "a", quiet_config(1))
        cluster.add_node(SinkAlgorithm(), "b", quiet_config(1))
        await cluster.start()
        joining = asyncio.Event()

        async def join(cl, name):
            joining.set()
            await cl.start_node(cl.add_node(SinkAlgorithm(), name, quiet_config(1)))

        FailureSchedule().join_node(0.0, "late").leave_node(0.0, "a").arm(
            cluster, node_factory=join)
        await joining.wait()
        await cluster.stop()
        assert sorted(cluster._engines) == ["a", "b", "late"]
        assert not any(engine.running for engine in cluster.engines())

    run_converging(scenario())


def test_schedule_tolerates_unknown_targets():
    async def scenario():
        cluster = VirtualHost(chaos=ChaosController(seed=1))
        cluster.add_node(SinkAlgorithm(), "solo", watch_config(1))
        await cluster.start()
        # cut_link against a never-connected pair mirrors the sim's
        # UnknownNodeError contract ...
        with pytest.raises(UnknownNodeError):
            cluster.chaos.cut_link(cluster["solo"], NodeId("127.0.0.1", 1))
        # ... and a schedule racing a real failure swallows it.
        schedule = FailureSchedule().cut_link(0.01, "solo", "ghost")
        schedule.arm(cluster)
        await asyncio.sleep(0.1)  # must not raise
        await converged(cluster)

    run_converging(scenario())


@pytest.mark.parametrize("fault", ["cut_link", "stall_link"])
def test_link_faults_are_refused_at_arm_time_without_chaos(fault):
    """A loopback-only host cannot inject link faults: arming such a
    schedule raises, rather than leaving a fault-free run behind."""
    host = VirtualHost()
    host.add_node(SinkAlgorithm(), "a")
    host.add_node(SinkAlgorithm(), "b")
    schedule = getattr(FailureSchedule(), fault)(0.5, "a", "b")
    with pytest.raises(ConfigurationError, match="ChaosController"):
        schedule.arm(host)

    async def scenario():
        # node faults need no chaos, and still fire on the same host
        await host.start()
        FailureSchedule().kill_node(0.0, "a").arm(host)
        assert await wait_until(lambda: not host.engine("a").running, 5.0)
        assert host.engine("b").running
        await host.stop()

    run_converging(scenario())
