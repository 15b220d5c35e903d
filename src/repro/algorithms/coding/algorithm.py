"""Overlay algorithms for the network-coding case study (Section 3.2).

Three roles reproduce the butterfly experiment of Fig. 8:

- :class:`CodedSourceAlgorithm` — the data source splits its stream into
  ``k`` sub-streams (messages are wrapped as unit-vector
  :class:`~repro.algorithms.coding.linear.CodedPayload`), sending
  sub-stream ``i`` to downstream ``i``;
- :class:`CodingNodeAlgorithm` — uses the engine's **hold** mechanism to
  buffer payloads of a generation until it has gathered ``k`` linearly
  independent ones, then emits their combination (``a + b`` in GF(2^8)
  for the paper's butterfly) to its downstreams;
- :class:`DecodingSinkAlgorithm` — runs incremental Gaussian elimination
  per generation and measures *effective throughput* as innovative bytes
  per second: duplicate copies carry no new information and do not
  count, which is exactly how the paper attributes 300 KB/s vs 400 KB/s
  to the receivers in Figs. 8(a) and 8(b).

Relay (helper) nodes need no coding awareness at all — they are plain
:class:`~repro.algorithms.forwarding.CopyForwardAlgorithm` instances, a
direct consequence of coded payloads being opaque data messages.
"""

from __future__ import annotations

from repro.algorithms.coding.linear import CodedPayload, GenerationDecoder, combine
from repro.core.algorithm import Algorithm, Disposition
from repro.core.ids import NodeId
from repro.core.message import Message
from repro.core.msgtypes import MsgType
from repro.core.stats import ThroughputMeter
from repro.errors import DecodingError


class CodedSourceAlgorithm(Algorithm):
    """Split locally-produced data into ``k`` coded sub-streams.

    Message ``seq`` maps to generation ``seq // k`` and stream index
    ``seq % k``; sub-stream ``i`` goes to ``downstreams[i]``.
    """

    def __init__(self, downstreams: list[NodeId] | None = None, seed: int | None = None) -> None:
        super().__init__(seed=seed)
        self._downstreams = list(downstreams or [])
        self.produced = 0

    def set_downstreams(self, downstreams: list[NodeId]) -> None:
        if not downstreams:
            raise ValueError("a coded source needs at least one downstream")
        self._downstreams = list(downstreams)

    @property
    def k(self) -> int:
        return len(self._downstreams)

    def on_data(self, msg: Message) -> Disposition:
        k = self.k
        if k == 0:
            return Disposition.DONE
        generation, index = divmod(msg.seq, k)
        coded = CodedPayload.original(generation, index, k, msg.payload)
        wrapped = Message(MsgType.DATA, msg.sender, msg.app, coded.pack(), seq=msg.seq)
        self.send(wrapped, self._downstreams[index])
        self.produced += 1
        return Disposition.DONE


class CodingNodeAlgorithm(Algorithm):
    """Code ``k`` incoming sub-streams into one outgoing stream.

    Holds payloads per generation (the engine's ``hold`` return) until
    ``k`` linearly independent ones arrived, then sends one combination
    to every downstream.  ``coefficients=None`` uses all-ones (the
    paper's ``a + b``); ``coefficients="random"`` draws random nonzero
    coefficients per combination (classic RLNC).
    """

    def __init__(
        self,
        k: int,
        downstreams: list[NodeId] | None = None,
        coefficients: list[int] | str | None = None,
        max_pending_generations: int = 256,
        seed: int | None = None,
    ) -> None:
        super().__init__(seed=seed)
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self._downstreams = list(downstreams or [])
        self._coefficients = coefficients
        self._max_pending = max_pending_generations
        # generation -> (payload list, rank tracker)
        self._pending: dict[int, tuple[list[CodedPayload], GenerationDecoder]] = {}
        self.combined = 0
        self.dropped_generations = 0
        self.non_innovative = 0
        self.effective = ThroughputMeter()

    def set_downstreams(self, downstreams: list[NodeId]) -> None:
        self._downstreams = list(downstreams)

    def on_data(self, msg: Message) -> Disposition:
        try:
            payload = CodedPayload.unpack(msg.payload)
        except DecodingError:
            return Disposition.DONE  # not coded traffic; ignore
        if payload.k != self.k:
            return Disposition.DONE
        stored, tracker = self._pending.get(payload.generation, (None, None))
        if stored is None:
            stored = []
            tracker = GenerationDecoder(self.k, len(payload.data))
            self._pending[payload.generation] = (stored, tracker)
            self._evict_if_needed(keep=payload.generation)
        assert tracker is not None
        if not tracker.add(payload):
            self.non_innovative += 1
            return Disposition.DONE
        self.effective.record(len(payload.data), self.engine.now())
        stored.append(payload)
        if tracker.rank < self.k:
            return Disposition.HOLD
        # Generation complete: emit one combination and release the hold.
        del self._pending[payload.generation]
        coded = combine(stored, self._pick_coefficients())
        out = Message(
            MsgType.DATA, msg.sender, msg.app, coded.pack(), seq=payload.generation
        )
        for dest in self._downstreams:
            self.send(out, dest)
        self.combined += 1
        return Disposition.DONE

    def _pick_coefficients(self) -> list[int]:
        if self._coefficients is None:
            return [1] * self.k
        if self._coefficients == "random":
            return [self.rng.randrange(1, 256) for _ in range(self.k)]
        return list(self._coefficients)  # type: ignore[arg-type]

    def _evict_if_needed(self, keep: int) -> None:
        while len(self._pending) > self._max_pending:
            oldest = min(gen for gen in self._pending if gen != keep)
            del self._pending[oldest]
            self.dropped_generations += 1

    @property
    def held_generations(self) -> int:
        return len(self._pending)

    def effective_rate(self) -> float:
        """Innovative bytes per second received by this coding node."""
        return self.effective.rate(self.engine.now())


class DecodingSinkAlgorithm(Algorithm):
    """Decode generations and measure effective (innovative) throughput.

    With ``forward_to`` set, the node additionally relays every raw data
    message to the given downstreams (so intermediate nodes like E in
    Fig. 8 can be measured *and* keep forwarding).
    """

    def __init__(
        self,
        k: int,
        forward_to: list[NodeId] | None = None,
        max_open_generations: int = 1024,
        seed: int | None = None,
    ) -> None:
        super().__init__(seed=seed)
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self._forward_to = list(forward_to or [])
        self._max_open = max_open_generations
        self._decoders: dict[int, GenerationDecoder] = {}
        # Completed generations: every one below the watermark, plus
        # the out-of-order completions ahead of it.  The window is
        # bounded like the open decoders, so a sink's tracking state
        # does not grow with the length of the stream.
        self._done_below = 0
        self._done_ahead: set[int] = set()
        self.effective = ThroughputMeter()
        self.decoded_generations = 0
        self.innovative_payloads = 0
        self.duplicate_payloads = 0

    def set_forward_to(self, downstreams: list[NodeId]) -> None:
        self._forward_to = list(downstreams)

    def on_data(self, msg: Message) -> Disposition:
        now = self.engine.now()
        for dest in self._forward_to:
            self.send(msg, dest)
        try:
            payload = CodedPayload.unpack(msg.payload)
        except DecodingError:
            return Disposition.DONE
        generation = payload.generation
        if (
            payload.k != self.k
            or generation < self._done_below
            or generation in self._done_ahead
        ):
            self.duplicate_payloads += 1
            return Disposition.DONE
        decoder = self._decoders.get(generation)
        if decoder is None:
            decoder = GenerationDecoder(self.k, len(payload.data))
            self._decoders[generation] = decoder
            while len(self._decoders) > self._max_open:
                oldest = min(self._decoders)
                del self._decoders[oldest]
        if decoder.add(payload):
            self.innovative_payloads += 1
            # Every innovative payload contributes one original's worth of
            # information: that is the effective goodput of the receiver.
            self.effective.record(len(payload.data), now)
        else:
            self.duplicate_payloads += 1
        if decoder.complete:
            originals = decoder.originals()  # exercises the full decode
            del self._decoders[generation]
            self._mark_done(generation)
            self.decoded_generations += 1
            self.on_generation_decoded(generation, originals)
        return Disposition.DONE

    def _mark_done(self, generation: int) -> None:
        ahead = self._done_ahead
        ahead.add(generation)
        if len(ahead) > self._max_open:
            # A generation behind the window never completed: give it up,
            # as the decoder eviction above gives up the oldest open one.
            self._done_below = min(ahead)
            for stale in [g for g in self._decoders if g < self._done_below]:
                del self._decoders[stale]
        while self._done_below in ahead:
            ahead.remove(self._done_below)
            self._done_below += 1

    def on_generation_decoded(self, generation: int, originals: list[bytes]) -> None:
        """Hook: a full generation decoded to its original payloads.

        The default discards the data (throughput studies only need the
        counters); applications that consume the stream — e.g. the
        cluster byte-identity scenarios — override this.
        """

    def effective_rate(self) -> float:
        """Innovative bytes per second, measured over the sliding window."""
        return self.effective.rate(self.engine.now())
