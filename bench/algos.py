"""Bench-owned algorithms: a stamping source, plain relays, checking sinks.

Every live workload runs these instead of the product's demo
algorithms, so the program under test receives only generated inputs
and every delivered message is checked.  A payload is::

    8-byte monotonic stamp | 4-byte seq | seeded body | CRC32

The source stamps each message when it produces it (the paced workload
stamps the *due* time instead).  The sink counts every message, checks
``seq`` continuity on every message, verifies the CRC on one message in
``check_every`` and records the stamp-to-arrival latency of those, all
bucketed by absolute monotonic second so the runner can cut the window
into one-second slices afterwards.  ``CLOCK_MONOTONIC`` is system-wide,
so stamps compare across the cluster's worker processes.

Cluster workers import this module by ``bench.algos:Class`` spec; when
their environment carries the bench's trace switch, importing it also
installs the tracing wrappers inside that worker.
"""

from __future__ import annotations

import random
import struct
import zlib
from time import monotonic

from repro.algorithms.coding.algorithm import (
    CodedSourceAlgorithm,
    CodingNodeAlgorithm,
    DecodingSinkAlgorithm,
)
from repro.algorithms.forwarding import CopyForwardAlgorithm
from repro.core.algorithm import Algorithm, Disposition
from repro.core.ids import NodeId
from repro.core.message import Message

from bench import trace

APP = 1

#: ``CONTROL.type``: stop emitting (source) / report in full (sink)
CLOSE_CONTROL = 7

_HEAD = struct.Struct("<dI")
_CRC = struct.Struct("<I")
OVERHEAD = _HEAD.size + _CRC.size

#: distinct seeded bodies cycled through by ``seq`` (odd, so the two
#: sub-streams of the k=2 butterfly both see every body)
BODY_POOL = 61


def make_bodies(seed: int, size: int) -> list[tuple[bytes, int]]:
    """The seeded payload bodies for ``size``-byte payloads, with their CRCs."""
    if size < OVERHEAD:
        raise ValueError(f"payload size {size} is below the {OVERHEAD}-byte envelope")
    rng = random.Random(seed)
    bodies = [rng.randbytes(size - OVERHEAD) for _ in range(BODY_POOL)]
    return [(body, zlib.crc32(body)) for body in bodies]


def build_payload(stamp: float, seq: int, body: bytes, body_crc: int) -> bytes:
    """Assemble one payload; the CRC covers the body, then the head."""
    head = _HEAD.pack(stamp, seq & 0xFFFFFFFF)
    return b"".join((head, body, _CRC.pack(zlib.crc32(head, body_crc))))


def check_payload(payload: bytes) -> tuple[float, int] | None:
    """``(stamp, seq)`` of an intact payload, ``None`` when the CRC fails."""
    if len(payload) < OVERHEAD:
        return None
    head = payload[: _HEAD.size]
    crc = zlib.crc32(head, zlib.crc32(payload[_HEAD.size : -_CRC.size]))
    if _CRC.pack(crc) != payload[-_CRC.size :]:
        return None
    return _HEAD.unpack(head)


def _is_close(msg: Message) -> bool:
    return int(msg.fields().get("type", 0)) == CLOSE_CONTROL


def _trace_report(algorithm: Algorithm) -> dict:
    """This process's tracing state, for ``cluster_info()`` replies.

    Co-hosted nodes share their worker's recorder and telemetry, so one
    node's reply speaks for the whole worker process.
    """
    if trace.REC is None:
        return {}
    telemetry = algorithm.engine.config.telemetry
    return {
        "trace": trace.REC.snapshot(),
        "totals": trace.engine_totals(telemetry.snapshot()) if telemetry else {},
    }


# -------------------------------------------------------------------- sources


class _Stamper:
    """Mixin: stamped, seeded, CRC-protected source payloads.

    ``close()`` stops emission without losing anything: later source
    messages are dropped *before* they are counted or sent, while one
    already waiting for sender-buffer space still completes — so after a
    drain, emitted equals delivered exactly.
    """

    def _init_stamper(self, seed: int) -> None:
        self._body_seed = seed
        self._bodies: list[tuple[bytes, int]] = []
        self._body_size = -1
        self.emitted = 0
        self.closed = False

    def produce_payload(self, app: int, seq: int, size: int) -> bytes:
        if size != self._body_size:
            self._bodies = make_bodies(self._body_seed, size)
            self._body_size = size
        body, crc = self._bodies[seq % BODY_POOL]
        return build_payload(monotonic(), seq, body, crc)

    def close(self) -> None:
        self.closed = True

    def on_control(self, msg: Message) -> Disposition:
        if _is_close(msg):
            self.close()
        return Disposition.DONE

    def cluster_info(self) -> dict:
        return {"emitted": self.emitted, **_trace_report(self)}


class StampSource(_Stamper, Algorithm):
    """Chain source: every locally produced message goes to one next hop."""

    def __init__(self, downstreams: list[NodeId] | None = None, seed: int = 0) -> None:
        super().__init__(seed=seed)
        self._init_stamper(seed)
        self._next = downstreams[0] if downstreams else None

    def set_downstreams(self, downstreams: list[NodeId]) -> None:
        self._next = downstreams[0]

    def on_data(self, msg: Message) -> Disposition:
        if not self.closed:
            self.emitted += 1
            self.send(msg, self._next)
        return Disposition.DONE

    def inject(self, msg: Message) -> None:
        """Open-loop entry: the paced generator hands over a built message."""
        self.emitted += 1
        self.send(msg, self._next)


class StampCodedSource(_Stamper, CodedSourceAlgorithm):
    """Butterfly source: stamped originals split into k coded sub-streams.

    Closing takes effect at a generation boundary, so the last
    generation emitted is complete and decodable.
    """

    def __init__(self, downstreams: list[NodeId] | None = None, seed: int = 0) -> None:
        super().__init__(downstreams=downstreams, seed=seed)
        self._init_stamper(seed)
        self._sealed = False

    def on_data(self, msg: Message) -> Disposition:
        if self.closed and msg.seq % max(self.k, 1) == 0:
            self._sealed = True
        if self._sealed:
            return Disposition.DONE
        self.emitted += 1
        return super().on_data(msg)


# --------------------------------------------------------------------- relays


class Relay(CopyForwardAlgorithm):
    """Plain copy-forward relay."""

    def cluster_info(self) -> dict:
        return {"received": self.received, **_trace_report(self)}


class CodingRelay(CodingNodeAlgorithm):
    """The butterfly's coding node, bench-owned so its ``process`` is traced."""


# ---------------------------------------------------------------------- sinks


class _Ledger:
    """Mixin: per-slice counting, ``seq`` continuity, sampled CRC + latency."""

    def _init_ledger(self, check_every: int, late_ms: float) -> None:
        self._check_every = max(1, check_every)
        self._late_s = late_ms / 1e3 if late_ms > 0 else float("inf")
        self.received = 0
        self.verified = 0
        self.crc_bad = 0
        self.late = 0
        #: arrivals below the running maximum ``seq`` (start-up dial race)
        self.reordered = 0
        self.seq_sum = 0
        self._next_seq = 0
        #: when the first message was verified (0.0 until then)
        self.first_at = 0.0
        #: absolute monotonic second -> [count, last arrival, latencies]
        self.slices: dict[int, list] = {}
        self._slice: list = [0, 0.0, []]
        self._sec = -1
        self._full = False

    def _arrive(self, now: float, seq: int, carrier: Message | bytes) -> None:
        sec = int(now)
        if sec != self._sec:
            self._sec = sec
            self._slice = self.slices.setdefault(sec, [0, now, []])
        entry = self._slice
        entry[0] += 1
        entry[1] = now
        if seq == self._next_seq:
            self._next_seq = seq + 1
        elif seq < self._next_seq:
            self.reordered += 1
        else:
            self._next_seq = seq + 1
        self.seq_sum += seq
        n = self.received = self.received + 1
        if n == 1 or n % self._check_every == 0:
            checked = check_payload(carrier if type(carrier) is bytes else carrier.payload)
            if checked is None or checked[1] != seq & 0xFFFFFFFF:
                self.crc_bad += 1
                return
            self.verified += 1
            latency = now - checked[0]
            entry[2].append(latency)
            if latency > self._late_s:
                self.late += 1
            if n == 1:
                self.first_at = now

    def report(self, full: bool) -> dict:
        out = {
            "received": self.received,
            "verified": self.verified,
            "crc_bad": self.crc_bad,
            "late": self.late,
            "reordered": self.reordered,
            "seq_sum": self.seq_sum,
            "max_seq": self._next_seq - 1,
            "first_at": self.first_at,
        }
        if full:
            out["slices"] = dict(self.slices)
        return out

    def on_control(self, msg: Message) -> Disposition:
        if _is_close(msg):
            self._full = True
        return Disposition.DONE

    def cluster_info(self) -> dict:
        # light until closed: the runner polls this inside the window
        return {**self.report(full=self._full), **_trace_report(self)}


class StampSink(_Ledger, Algorithm):
    """Chain sink."""

    def __init__(self, check_every: int = 8, late_ms: float = 0.0, seed: int | None = None) -> None:
        super().__init__(seed=seed)
        self._init_ledger(check_every, late_ms)

    def on_data(self, msg: Message) -> Disposition:
        self._arrive(monotonic(), msg.seq, msg)
        return Disposition.DONE


class StampDecodingSink(_Ledger, DecodingSinkAlgorithm):
    """Butterfly receiver: every decoded original is one delivered message."""

    def __init__(self, k: int, check_every: int = 8, seed: int | None = None) -> None:
        super().__init__(k=k, seed=seed)
        self._init_ledger(check_every, 0.0)

    def on_generation_decoded(self, generation: int, originals: list[bytes]) -> None:
        now = monotonic()
        for index, original in enumerate(originals):
            self._arrive(now, generation * self.k + index, original)


ALL = (StampSource, StampCodedSource, Relay, CodingRelay, StampSink, StampDecodingSink)

if trace.requested():
    trace.install(ALL)
