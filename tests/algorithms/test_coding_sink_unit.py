"""DecodingSinkAlgorithm's completion tracking, driven with a stub engine."""

from repro.algorithms.coding.algorithm import DecodingSinkAlgorithm
from repro.algorithms.coding.linear import CodedPayload
from repro.core.ids import NodeId
from repro.core.message import Message
from repro.core.msgtypes import MsgType

SOURCE = NodeId("10.0.0.8", 7000)
K = 2


class StubEngine:
    def now(self):
        return 0.0


def make_sink(**kwargs):
    sink = DecodingSinkAlgorithm(k=K, **kwargs)
    sink.bind(StubEngine())
    return sink


def feed(sink, generation, index):
    payload = CodedPayload.original(generation, index, K, b"x" * 8).pack()
    sink.on_data(Message(MsgType.DATA, SOURCE, 1, payload, seq=generation * K + index))


def complete(sink, generation):
    for index in range(K):
        feed(sink, generation, index)


def tracked(sink):
    return len(sink._done_ahead) + len(sink._decoders)


def test_tracking_state_stays_bounded_over_50k_generations():
    sink = make_sink(max_open_generations=64)
    peak = 0
    for generation in range(50_000):
        complete(sink, generation)
        peak = max(peak, tracked(sink))
    assert sink.decoded_generations == 50_000
    assert sink._done_below == 50_000
    assert peak <= 1  # in order, the watermark absorbs every completion


def test_out_of_order_completions_stay_inside_the_window():
    sink = make_sink(max_open_generations=64)
    peak = 0
    # generation 0 never completes; pairs arrive swapped behind it
    feed(sink, 0, 0)
    for base in range(1, 50_000, 2):
        complete(sink, base + 1)
        complete(sink, base)
        peak = max(peak, tracked(sink))
    assert peak <= 64 + 1
    assert sink._done_below > 49_000
    assert 0 not in sink._decoders  # given up with the window's advance


def test_late_payload_of_an_old_generation_is_a_duplicate():
    sink = make_sink(max_open_generations=64)
    for generation in range(1000):
        complete(sink, generation)
    before = (sink.duplicate_payloads, sink.innovative_payloads, sink.decoded_generations)
    feed(sink, 3, 0)  # long behind the watermark
    feed(sink, 999, 1)
    assert sink.duplicate_payloads == before[0] + 2
    assert (sink.innovative_payloads, sink.decoded_generations) == before[1:]
    assert not sink._decoders


def test_duplicate_of_an_out_of_order_completion_is_a_duplicate():
    sink = make_sink()
    complete(sink, 5)  # ahead of the watermark: 0..4 are still open
    assert sink._done_below == 0 and sink._done_ahead == {5}
    feed(sink, 5, 0)
    assert sink.duplicate_payloads == 1
    assert sink.decoded_generations == 1
    for generation in range(5):
        complete(sink, generation)
    assert sink._done_below == 6 and not sink._done_ahead
