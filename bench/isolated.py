"""Isolated layer metrics: a layer's public function called on fixed inputs.

These re-home the micro numbers of ``BENCH_core.json`` (that file is
left alone) so the micro and end-to-end figures live in one report.
Each is the median over :data:`REPEATS` repeats of a short loop.  No
workload's traffic runs while they do, so they say what a layer costs
alone and predict, never measure, an end-to-end change.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable

from bench.measure import Stat

REPEATS = 7


def _per_call_us(loop: Callable[[], int]) -> list[float]:
    """Microseconds per operation over the repeats of ``loop`` (returns ops)."""
    loop()  # warm caches and first-touch pages outside the timing
    out = []
    for _ in range(REPEATS):
        start = perf_counter()
        ops = loop()
        out.append((perf_counter() - start) * 1e6 / ops)
    return out


def _rates(loop: Callable[[], int]) -> list[float]:
    return [1e6 / us for us in _per_call_us(loop)]


def _message_codec() -> dict[str, list[float]]:
    from repro.core.ids import NodeId
    from repro.core.message import Message
    from repro.core.msgtypes import MsgType

    sender = NodeId("10.0.0.1", 7000)
    payload = bytes(range(256)) * 19 + bytes(136)  # 5000 B
    frame = Message(MsgType.DATA, sender, 1, payload, seq=7).pack()
    assert len(frame) == 5024

    def pack() -> int:
        for seq in range(2000):
            Message(MsgType.DATA, sender, 1, payload, seq=seq).pack()  # fresh each time
        return 2000

    def unpack() -> int:
        for _ in range(4000):
            Message.unpack(frame)
        return 4000

    return {"core.message.pack_us": _per_call_us(pack),
            "core.message.unpack_us": _per_call_us(unpack)}


def _switch_pass() -> dict[str, list[float]]:
    from repro.core.buffer import CircularBuffer
    from repro.core.ids import NodeId
    from repro.core.message import Message
    from repro.core.msgtypes import MsgType
    from repro.core.switch import ReceiverPort, SwitchScheduler

    scheduler = SwitchScheduler()
    for i in range(16):
        buffer: CircularBuffer = CircularBuffer(8)
        port = ReceiverPort(peer=NodeId(f"10.0.0.{i + 1}", 7000), buffer=buffer)
        scheduler.add_port(port)
        for _ in range(4):
            buffer.put(Message(MsgType.DATA, port.peer, 1, b"x" * 64))

    def passes() -> int:
        total = 0
        for _ in range(3000):
            for port in scheduler.rotation():
                port.has_work()
            if scheduler.has_work():
                total += scheduler.total_buffered()
        assert total == 3000 * 64
        return 3000

    return {"core.switch.pass_us": _per_call_us(passes)}


def _pack_headers() -> dict[str, list[float]]:
    from repro.core.ids import NodeId
    from repro.core.message import Message
    from repro.core.msgtypes import MsgType
    from repro.net.framing import pack_headers

    sender = NodeId("10.1.2.3", 7001)
    burst = [Message(MsgType.DATA, sender, 1, b"x" * 64, seq=i) for i in range(32)]

    def bursts() -> int:
        for _ in range(600):
            pack_headers(burst)
        return 600 * 32

    return {"net.framing.pack_headers_us_per_frame": _per_call_us(bursts)}


def _shm_ring() -> dict[str, list[float]]:
    from repro.core.ids import NodeId
    from repro.core.message import Message
    from repro.core.msgtypes import MsgType
    from repro.net.shm import RingBuffer

    frame = memoryview(Message(MsgType.DATA, NodeId("10.0.0.1", 7000), 1, bytes(5000)).pack())
    ring = RingBuffer.create(1 << 20)
    try:
        def frames() -> int:
            moved = 0
            for _ in range(60):
                for _ in range(64):
                    ring.write_some(frame)
                moved += len(ring.read_available()) // len(frame)
            assert moved == 60 * 64
            return moved

        return {"net.shm.ring_frames_per_s": _rates(frames)}
    finally:
        frame.release()
        ring.release(unlink=True)


def _sim_kernel() -> dict[str, list[float]]:
    from repro.sim.kernel import Kernel
    from repro.sim.sync import SimQueue

    def ready() -> int:
        kernel = Kernel()
        remaining = [20_000]

        def tick() -> None:
            remaining[0] -= 1
            if remaining[0]:
                kernel.call_soon(tick)

        kernel.call_soon(tick)
        kernel.run()
        return 20_000

    def timers() -> int:
        kernel = Kernel()
        for i in range(10_000):
            kernel.call_at(i * 0.001, int)
        kernel.run()
        return 10_000

    def roundtrips() -> int:
        kernel = Kernel()
        ping: SimQueue = SimQueue(kernel, capacity=1)
        pong: SimQueue = SimQueue(kernel, capacity=1)

        async def left() -> None:
            for _ in range(2000):
                await ping.put(1)
                await pong.get()

        async def right() -> None:
            for _ in range(2000):
                await ping.get()
                await pong.put(1)

        kernel.spawn(left())
        kernel.spawn(right())
        kernel.run()
        return 2000

    return {"sim.kernel.ready_events_per_s": _rates(ready),
            "sim.kernel.timer_events_per_s": _rates(timers),
            "sim.sync.queue_roundtrips_per_s": _rates(roundtrips)}


def _coding() -> dict[str, list[float]]:
    from repro.algorithms.coding.linear import CodedPayload, GenerationDecoder, combine

    k, size = 2, 5000
    originals = [CodedPayload.original(0, i, k, bytes([(i * 31 + j) % 256 for j in range(size)]))
                 for i in range(k)]

    def generations() -> int:
        for _ in range(40):
            coded = combine(originals, [1, 1])
            decoder = GenerationDecoder(k, size)
            decoder.add(originals[0])
            decoder.add(coded)
            assert decoder.originals()[1] == originals[1].data
        return 40 * 3 * size  # bytes combined (2 inputs) + decoded (1 eliminated)

    return {"algorithms.coding.coded_MBps": [rate / 1e6 for rate in _rates(generations)]}


def _routing() -> dict[str, list[float]]:
    from repro.algorithms.routing.core import BackpressurePolicy, RoutingCore

    neighbors = [f"10.0.0.{i}:7000" for i in range(1, 5)]
    commodities = [1, 2, 3, 4]

    def rounds() -> int:
        core = RoutingCore(BackpressurePolicy(), quantum=8)
        for i, label in enumerate(neighbors):
            core.note_neighbor(label, {c: (i + c) % 3 for c in commodities},
                               dists={c: 1 for c in commodities})
        for round_no in range(500):
            for commodity in commodities:
                core.enqueue(commodity, b"x" * 64)
                core.enqueue(commodity, b"x" * 64)
            tunnels = {label: round_no % 4 for label in neighbors}
            for decision in core.decide(tunnels, dists={c: 2 for c in commodities}):
                core.take(decision.commodity, decision.count)
        return 500

    return {"algorithms.routing.rounds_per_s": _rates(rounds)}


def _membership() -> dict[str, list[float]]:
    from repro.experiments.fig_churn_convergence import run_slotted_point

    rates, converged = [], []
    for _ in range(REPEATS):
        point = run_slotted_point(n_nodes=60, topology="line", seed=0,
                                  churn=True, churn_duration=5.0, max_rounds=200)
        rates.append(point.stats.node_rounds / point.wall_seconds)
        converged.append(float(point.convergence_round or 0))
    return {"membership.slotted.node_rounds_per_s": rates,
            "membership.slotted.convergence_round": converged}


def run_all(units: dict[str, str]) -> dict[str, Stat]:
    """Every isolated metric as a median with its spread over the repeats."""
    samples: dict[str, list[float]] = {}
    for group in (_message_codec, _switch_pass, _pack_headers, _shm_ring,
                  _sim_kernel, _coding, _routing, _membership):
        samples.update(group())
    return {name: Stat.over(values, units[name]) for name, values in samples.items()}


if __name__ == "__main__":
    from bench.catalogue import PER_LAYER_UNITS

    begin = perf_counter()
    for name, stat in run_all(PER_LAYER_UNITS).items():
        print(f"{name:45s} {stat.value:14.3f} {stat.unit:6s} IQR {stat.q3 - stat.q1:.3f}")
    print(f"{perf_counter() - begin:.2f}s in all")
