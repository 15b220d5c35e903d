"""Unit and property tests for the bounded buffers: the ring and the engine queue."""

from collections import deque

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.buffer import BoundedQueue, CircularBuffer
from repro.errors import BufferClosedError


def test_fifo_order():
    buf = CircularBuffer(3)
    buf.put("a")
    buf.put("b")
    buf.put("c")
    assert [buf.get(), buf.get(), buf.get()] == ["a", "b", "c"]


def test_capacity_enforced():
    buf = CircularBuffer(2)
    buf.put(1)
    buf.put(2)
    assert buf.is_full
    with pytest.raises(IndexError):
        buf.put(3)


def test_get_empty_raises():
    buf = CircularBuffer(2)
    with pytest.raises(IndexError):
        buf.get()


def test_wraparound():
    buf = CircularBuffer(2)
    for i in range(10):
        buf.put(i)
        assert buf.get() == i
    assert buf.is_empty


def test_peek_does_not_consume():
    buf = CircularBuffer(2)
    buf.put("x")
    assert buf.peek() == "x"
    assert len(buf) == 1
    assert buf.get() == "x"


def test_clear_returns_in_order():
    buf = CircularBuffer(4)
    for i in range(3):
        buf.put(i)
    assert buf.clear() == [0, 1, 2]
    assert buf.is_empty and buf.free == 4


def test_iteration_oldest_first_non_consuming():
    buf = CircularBuffer(3)
    buf.put(1)
    buf.put(2)
    buf.get()
    buf.put(3)
    buf.put(4)  # wraps
    assert list(buf) == [2, 3, 4]
    assert len(buf) == 3


def test_close_blocks_put_allows_get():
    buf = CircularBuffer(2)
    buf.put("a")
    buf.close()
    with pytest.raises(BufferClosedError):
        buf.put("b")
    assert buf.get() == "a"


def test_invalid_capacity():
    with pytest.raises(ValueError):
        CircularBuffer(0)


def test_queue_fifo_and_capacity():
    queue = BoundedQueue(capacity=2)
    assert queue.put_nowait(1) and queue.put_nowait(2)
    assert not queue.put_nowait(3)
    assert queue.is_full
    queue.put_force(3)  # control traffic exceeds nominal capacity
    assert len(queue) == 3
    assert [queue.get_nowait() for _ in range(3)] == [1, 2, 3]


def test_drain_and_nowait_behaviour():
    queue = BoundedQueue(capacity=5)
    for i in range(3):
        queue.put_nowait(i)
    assert queue.drain() == [0, 1, 2]
    with pytest.raises(IndexError):
        queue.get_nowait()


#: one step of the reference-deque property: an operation and an argument
#: (a burst length for ``put_many``, ignored otherwise)
OPS = ("put", "put_many", "put_force", "get", "drain", "close", "on_space")


@given(ops=st.lists(st.tuples(st.sampled_from(OPS), st.integers(0, 4)), max_size=200),
       capacity=st.integers(min_value=1, max_value=8),
       kind=st.sampled_from(["ring", "queue"]))
def test_property_matches_reference_deque(ops, capacity, kind):
    """Either buffer behaves exactly like a capacity-bounded deque.

    The ring has no ``put_many`` / ``put_force`` / ``on_space`` (those
    steps are skipped for it).  On the queue, every ``on_space``
    registration fires exactly once: at the next item taken, drain or
    first close, in registration order.
    """
    ring = kind == "ring"
    buf = CircularBuffer(capacity) if ring else BoundedQueue(capacity)
    size = [0]
    buf.on_size_change = lambda delta: size.__setitem__(0, size[0] + delta)
    reference: deque = deque()
    closed = False
    fired: list[int] = []
    registered: list[int] = []  # waiting for the next space event
    expected: list[int] = []
    counter = iter(range(10**6))

    def space_event() -> None:
        expected.extend(registered)
        registered.clear()

    for op, arg in ops:
        item = next(counter)
        if op == "put":
            fits = len(reference) < capacity
            if closed:
                with pytest.raises(BufferClosedError):
                    buf.put(item) if ring else buf.put_nowait(item)
            elif ring:
                if fits:
                    buf.put(item)
                else:
                    with pytest.raises(IndexError):
                        buf.put(item)
            else:
                assert buf.put_nowait(item) is fits
            if fits and not closed:
                reference.append(item)
        elif op in ("put_many", "put_force") and ring:
            continue
        elif op == "put_many":
            burst = [next(counter) for _ in range(arg)]
            if closed:
                with pytest.raises(BufferClosedError):
                    buf.put_many_nowait(burst)
            else:
                fit = max(0, min(arg, capacity - len(reference)))
                assert buf.put_many_nowait(burst) == fit
                reference.extend(burst[:fit])
        elif op == "put_force":
            if closed:
                with pytest.raises(BufferClosedError):
                    buf.put_force(item)
            else:
                buf.put_force(item)
                reference.append(item)
        elif op == "get":
            if reference:
                assert (buf.get() if ring else buf.get_nowait()) == reference.popleft()
                space_event()
            else:
                with pytest.raises(IndexError):
                    buf.get() if ring else buf.get_nowait()
        elif op == "drain":
            assert (buf.clear() if ring else buf.drain()) == list(reference)
            reference.clear()
            space_event()
        elif op == "close":
            buf.close()
            if not closed:
                closed = True
                space_event()
        elif not ring:  # on_space
            buf.on_space(lambda token=item: fired.append(token))
            registered.append(item)
        assert len(buf) == len(reference) == size[0]
        assert buf.is_full == (len(reference) >= capacity)
        assert buf.is_empty == (not reference)
        assert buf.closed == closed
        assert fired == expected
    assert len(set(fired)) == len(fired)


