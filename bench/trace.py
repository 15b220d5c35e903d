"""Outside-in tracing: spans and counts at the boundaries of each layer.

``install()`` wraps the public functions the layers call each other
through, from this file, without touching ``src/``.  Each wrapper opens
a span (name, start, end, parent) on one process-wide stack, so a span's
self time is its duration minus what its child spans cover, and keeps a
count at the same boundary.  Spans live in memory; the runner writes the
sample it kept when the workload ends.  Coroutines are timed only while
they run: the time a ``read_message`` spends parked on the socket is
waiting, not work, and is left out.

The traced run supplies per-layer numbers only.  End-to-end metrics come
from a run in which this module was never installed.
"""

from __future__ import annotations

import asyncio
import os
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

#: set in a cluster worker's environment to make ``bench.algos`` install
#: the wrappers when the worker first imports it
ENV_SWITCH = "IOVERLAY_BENCH_TRACE"

#: raw spans kept per process (the accumulators see every span)
SPAN_CAP = 20_000


class Recorder:
    """Per-process span accumulators, counters and a capped span sample."""

    def __init__(self) -> None:
        #: span name -> [count, total seconds, self seconds, items]
        self.acc: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.counts: dict[str, int] = defaultdict(int)
        self.stack: list[list] = []
        #: (name, start, end, parent name, message id or "")
        self.spans: list[tuple] = []

    def snapshot(self) -> dict:
        return {
            "acc": {name: list(values) for name, values in self.acc.items()},
            "counts": dict(self.counts),
        }

    def drop_spans(self) -> None:
        """Forget the raw sample (the window starts a fresh one)."""
        self.spans.clear()


REC: Recorder | None = None


def delta(before: dict, after: dict) -> dict:
    """What happened between two :meth:`Recorder.snapshot` calls."""
    acc = {}
    for name, values in after["acc"].items():
        base = before["acc"].get(name, [0, 0.0, 0.0, 0])
        acc[name] = [v - b for v, b in zip(values, base)]
    counts = {
        name: value - before["counts"].get(name, 0)
        for name, value in after["counts"].items()
    }
    return {"acc": acc, "counts": counts}


def merge(parts: list[dict]) -> dict:
    """Sum the deltas of several processes."""
    acc: dict[str, list[float]] = {}
    counts: dict[str, int] = defaultdict(int)
    for part in parts:
        for name, values in part["acc"].items():
            have = acc.setdefault(name, [0, 0.0, 0.0, 0])
            for i, value in enumerate(values):
                have[i] += value
        for name, value in part["counts"].items():
            counts[name] += value
    return {"acc": acc, "counts": dict(counts)}


# ------------------------------------------------------------------- wrappers


def _message_id(args: tuple) -> str:
    for arg in args[:3]:
        seq = getattr(arg, "seq", None)
        if seq is not None and hasattr(arg, "sender"):
            return f"{arg.sender}/{arg.app}#{seq}"
    return ""


def _close(rec: Recorder, name: str, frame: list, start: float, items: int, args: tuple) -> None:
    elapsed = perf_counter() - start
    stack = rec.stack
    stack.pop()
    parent = None
    if stack:
        stack[-1][1] += elapsed
        parent = stack[-1][0]
    acc = rec.acc[name]
    acc[0] += 1
    acc[1] += elapsed
    acc[2] += elapsed - frame[1]
    acc[3] += items
    if len(rec.spans) < SPAN_CAP:
        rec.spans.append((name, start, start + elapsed, parent, _message_id(args)))


def timed(name: str, fn: Callable, items: Callable[[tuple, Any], int] | None = None) -> Callable:
    """Wrap a plain function in a span."""

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        rec = REC
        frame = [name, 0.0]
        rec.stack.append(frame)
        start = perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            _close(rec, name, frame, start, items(args, result) if items else 1, args)

    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    return wrapper


class _BusyAwaitable:
    """Drive a coroutine step by step, timing only the steps that run."""

    __slots__ = ("_coro", "_name")

    def __init__(self, coro: Any, name: str) -> None:
        self._coro = coro
        self._name = name

    def __await__(self):
        rec = REC
        name = self._name
        steps = self._coro.__await__()
        thrown: BaseException | None = None
        while True:
            frame = [name, 0.0]
            rec.stack.append(frame)
            start = perf_counter()
            try:
                if thrown is None:
                    parked_on = steps.send(None)
                else:
                    parked_on = steps.throw(thrown)
            except StopIteration as stop:
                _close(rec, name, frame, start, 1, ())
                return stop.value
            except BaseException:
                _close(rec, name, frame, start, 0, ())
                raise
            # parked: the step so far counts as work, the wait does not
            _close(rec, name, frame, start, 0, ())
            acc = rec.acc[name]
            acc[0] -= 1  # one call, however many steps it took
            try:
                yield parked_on
                thrown = None
            except BaseException as exc:  # cancellation or a fault thrown in
                thrown = exc


def timed_async(name: str, fn: Callable) -> Callable:
    """Wrap a coroutine function; only its running steps are timed."""

    def wrapper(*args: Any, **kwargs: Any) -> _BusyAwaitable:
        return _BusyAwaitable(fn(*args, **kwargs), name)

    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    return wrapper


def counted(name: str, fn: Callable) -> Callable:
    """Count calls without timing them."""

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        REC.counts[name] += 1
        return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    return wrapper


# -------------------------------------------------------------------- install


def requested() -> bool:
    """True in a process whose environment carries the trace switch."""
    return os.environ.get(ENV_SWITCH) == "1"


def install(algorithm_classes: tuple[type, ...]) -> Recorder:
    """Wrap every layer boundary in this process (idempotent)."""
    global REC
    if REC is not None:
        return REC
    REC = Recorder()

    import repro.algorithms.coding.algorithm as coding_algorithm
    import repro.net.engine as net_engine
    import repro.sim.network as sim_network
    from repro.algorithms.coding.linear import GenerationDecoder
    from repro.core.algorithm import Algorithm
    from repro.core.engine_core import EngineCore
    from repro.core.message import Message
    from repro.core.msgtypes import MsgType
    from repro.net.shm import RingBuffer, ShmEndpoint
    from repro.net.virtual import LoopbackEndpoint
    from repro.sim.kernel import Kernel

    # core.engine_core: one span per switch round; control traffic counted
    EngineCore._switch_round = timed(
        "core.engine_core.switch_round", EngineCore._switch_round)
    EngineCore._engine_process = counted(
        "core.engine_core.control_msgs", EngineCore._engine_process)

    # core.algorithm: the bench's own algorithm classes only
    data_type = MsgType.DATA
    inner_process = timed("core.algorithm.process", Algorithm.process)

    def process(self: Any, msg: Any) -> Any:
        if msg.type != data_type:
            REC.counts["core.engine_core.control_msgs"] += 1
        return inner_process(self, msg)

    for cls in algorithm_classes:
        cls.process = process

    # core.message: decode spans, fresh header packs counted
    Message.unpack = classmethod(timed("core.message.unpack", Message.unpack.__func__))
    Message.header_bytes = counted("core.message.fresh_packs", Message.header_bytes)
    Message.header_values = counted("core.message.fresh_packs", Message.header_values)

    # net.framing, as net.engine calls it.  Endpoints (loopback, shm)
    # are dispatched to without a span: no frame is built for them, and
    # their own wrappers below account for the call.
    write_batch, write_message, read_message = (
        net_engine.write_batch, net_engine.write_message, net_engine.read_message)
    stream_batch = timed("net.framing.write", write_batch, items=lambda a, _: len(a[1]))
    stream_write = timed("net.framing.write", write_message)
    stream_read = timed_async("net.framing.read", read_message)

    def traced_write_batch(writer: Any, msgs: list) -> None:
        if hasattr(writer, "send_message"):
            write_batch(writer, msgs)
        else:
            stream_batch(writer, msgs)

    def traced_write_message(writer: Any, msg: Any) -> None:
        if hasattr(writer, "send_message"):
            write_message(writer, msg)
        else:
            stream_write(writer, msg)

    def traced_read_message(reader: Any) -> Any:
        if hasattr(reader, "recv_message"):
            return read_message(reader)
        return stream_read(reader)

    net_engine.write_batch = traced_write_batch
    net_engine.write_message = traced_write_message
    net_engine.read_message = traced_read_message

    # net.shm
    ShmEndpoint.send_message = timed("net.shm.send", ShmEndpoint.send_message)
    ShmEndpoint.drain = timed_async("net.shm.drain", ShmEndpoint.drain)
    ShmEndpoint.recv_message = timed_async("net.shm.recv", ShmEndpoint.recv_message)
    ShmEndpoint.drain_frames = timed(
        "net.shm.sweep", ShmEndpoint.drain_frames, items=lambda _, frames: len(frames or ()))
    ShmEndpoint._ring_doorbell = counted("net.shm.doorbells", ShmEndpoint._ring_doorbell)
    park_producer = RingBuffer.park_producer

    def traced_park_producer(self: Any, parked: bool) -> None:
        if parked:
            REC.counts["net.shm.ring_full_waits"] += 1
        park_producer(self, parked)

    RingBuffer.park_producer = traced_park_producer

    # net.virtual
    LoopbackEndpoint.send_message = timed("net.virtual.send", LoopbackEndpoint.send_message)

    # algorithms.coding
    coding_algorithm.combine = timed("algorithms.coding.combine", coding_algorithm.combine)
    GenerationDecoder.add = timed("algorithms.coding.decode", GenerationDecoder.add)
    GenerationDecoder.originals = timed("algorithms.coding.decode", GenerationDecoder.originals)

    # net.engine: callbacks the event loop is asked to run
    loop_class = asyncio.BaseEventLoop
    loop_class.call_soon = counted("net.engine.loop_callbacks", loop_class.call_soon)
    loop_class.call_at = counted("net.engine.loop_timers", loop_class.call_at)

    # sim.kernel: timed events counted by a bench-owned subclass (the
    # total of all events is the kernel's own sequence counter)
    class CountingKernel(Kernel):
        __slots__ = ()

        def call_at(self, when: float, callback: Any, *args: Any) -> Any:
            REC.counts["sim.kernel.timers"] += 1
            return Kernel.call_at(self, when, callback, *args)

        def sleep(self, delay: float) -> Any:
            REC.counts["sim.kernel.timers"] += 1
            return Kernel.sleep(self, delay)

    sim_network.Kernel = CountingKernel
    return REC


# ------------------------------------------------------- engine telemetry totals

_COUNTERS = {
    "switched": "ioverlay_engine_switched_messages_total",
    "rounds": "ioverlay_engine_switch_rounds_total",
    "epochs": "ioverlay_engine_credit_epochs_total",
    "defers": "ioverlay_engine_defers_total",
    "retries": "ioverlay_engine_retries_total",
    "stalls": "ioverlay_engine_credit_stalls_total",
}


def engine_totals(snapshot: dict) -> dict:
    """Sum the engine counters of one telemetry snapshot over its nodes.

    Scalars, plus ``wait_counts``: the per-bucket counts of the
    queue-wait histogram (bounds: ``instruments.QUEUE_WAIT_BUCKETS``).
    """
    totals: dict[str, Any] = {}
    for key, metric in _COUNTERS.items():
        series = snapshot.get(metric, {}).get("series", [])
        totals[key] = sum(entry["value"] for entry in series)
    batch = snapshot.get("ioverlay_engine_switch_batch_messages", {}).get("series", [])
    totals["batch_sum"] = sum(entry["sum"] for entry in batch)
    totals["batch_count"] = sum(entry["count"] for entry in batch)
    wait = snapshot.get("ioverlay_engine_queue_wait_seconds", {}).get("series", [])
    totals["wait_counts"] = [sum(col) for col in zip(*(e["counts"] for e in wait))]
    return totals


def _add(a: Any, b: Any, sign: int = 1) -> Any:
    """``a + sign * b``: scalars, or lists element-wise; a missing side is zero."""
    if isinstance(a, list) or isinstance(b, list):
        a, b = a or [], b or []
        width = max(len(a), len(b))
        a, b = a + [0] * (width - len(a)), b + [0] * (width - len(b))
        return [x + sign * y for x, y in zip(a, b)]
    return (a or 0) + sign * (b or 0)


def totals_delta(before: dict, after: dict) -> dict:
    return {key: _add(value, before.get(key), -1) for key, value in after.items()}


def totals_merge(parts: list[dict]) -> dict:
    out: dict[str, Any] = {}
    for part in parts:
        for key, value in part.items():
            out[key] = _add(out.get(key), value)
    return out
