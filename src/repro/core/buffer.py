"""Bounded FIFOs for receiver, sender and control buffers.

The paper implements the shared buffers between receiver, engine and
sender threads as thread-safe circular queues with a fixed capacity in
*messages* (Section 2.2).  Buffer capacity is the lever behind the whole
back-pressure story (Figs. 6 and 7), so capacity accounting must be
exact.

:class:`BoundedQueue` is the one buffer both engines build every port
from.  It never blocks: the link ends are callbacks, so a producer that
finds it full registers a one-shot :meth:`BoundedQueue.on_space`
callback instead of parking a task.  :class:`CircularBuffer` is the
plain fixed-size ring (``put``/``get`` raise instead of waiting) that
unit tests and micro-benchmarks drive the switch with.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Generic, Iterator, TypeVar

from repro.errors import BufferClosedError

T = TypeVar("T")


class CircularBuffer(Generic[T]):
    """A fixed-capacity FIFO ring of message references.

    Stores references only — never copies of items — mirroring the
    paper's zero-copy design.  ``put`` on a full buffer and ``get`` on an
    empty buffer raise ``IndexError``.
    """

    __slots__ = ("_items", "_capacity", "_head", "_count", "_closed", "on_size_change")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"buffer capacity must be >= 1, got {capacity}")
        self._items: list[T | None] = [None] * capacity
        self._capacity = capacity
        self._head = 0  # index of the oldest item
        self._count = 0
        self._closed = False
        #: optional listener called with the size delta after every
        #: mutation; lets aggregators (e.g. SwitchScheduler) maintain
        #: totals incrementally instead of re-summing buffers
        self.on_size_change = None

    # --- capacity --------------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Maximum number of items the buffer can hold."""
        return self._capacity

    def __len__(self) -> int:
        return self._count

    @property
    def is_full(self) -> bool:
        return self._count == self._capacity

    @property
    def is_empty(self) -> bool:
        return self._count == 0

    @property
    def free(self) -> int:
        """Number of free slots."""
        return self._capacity - self._count

    # --- queue operations --------------------------------------------------------

    def put(self, item: T) -> None:
        """Append ``item``; raises ``IndexError`` if full, ``BufferClosedError`` if closed."""
        if self._closed:
            raise BufferClosedError("put on closed buffer")
        if self._count == self._capacity:
            raise IndexError("buffer full")
        tail = (self._head + self._count) % self._capacity
        self._items[tail] = item
        self._count += 1
        if self.on_size_change is not None:
            self.on_size_change(1)

    def get(self) -> T:
        """Remove and return the oldest item; raises ``IndexError`` if empty."""
        if self._count == 0:
            raise IndexError("buffer empty")
        item = self._items[self._head]
        self._items[self._head] = None  # drop the reference promptly
        self._head = (self._head + 1) % self._capacity
        self._count -= 1
        if self.on_size_change is not None:
            self.on_size_change(-1)
        assert item is not None
        return item

    def peek(self) -> T:
        """Return the oldest item without removing it."""
        if self._count == 0:
            raise IndexError("buffer empty")
        item = self._items[self._head]
        assert item is not None
        return item

    def clear(self) -> list[T]:
        """Remove and return all items, oldest first."""
        drained = list(self)
        self._items = [None] * self._capacity
        self._head = 0
        self._count = 0
        if drained and self.on_size_change is not None:
            self.on_size_change(-len(drained))
        return drained

    # --- lifecycle -----------------------------------------------------------------

    def close(self) -> None:
        """Refuse further ``put`` calls; existing items may still be drained."""
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    # --- iteration -------------------------------------------------------------------

    def __iter__(self) -> Iterator[T]:
        """Iterate oldest-to-newest without consuming."""
        for offset in range(self._count):
            item = self._items[(self._head + offset) % self._capacity]
            assert item is not None
            yield item

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"CircularBuffer({self._count}/{self._capacity}, {state})"


class BoundedQueue(Generic[T]):
    """The engines' message buffer: a deque bounded in messages.

    ``capacity`` ``None`` is unbounded (the publicized control port).
    ``put_force`` appends past the bound: control traffic must never
    deadlock behind data back pressure (the paper keeps protocol
    messages flowing via the publicized port), at the cost of letting
    the queue exceed its nominal capacity by the (small) control volume.
    Items still queued at ``close`` may be taken; only puts are refused.
    """

    __slots__ = ("_items", "_capacity", "_closed", "_space", "on_size_change")

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self._items: deque[T] = deque()
        self._capacity = capacity
        self._closed = False
        self._space: list[Callable[[], None]] = []
        #: optional listener called with the size delta after every
        #: mutation (see :class:`CircularBuffer`)
        self.on_size_change = None

    @property
    def capacity(self) -> int | None:
        """Nominal bound in items (None = unbounded)."""
        return self._capacity

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_full(self) -> bool:
        """True when at (or past, via put_force) the nominal bound."""
        return self._capacity is not None and len(self._items) >= self._capacity

    @property
    def is_empty(self) -> bool:
        return not self._items

    @property
    def closed(self) -> bool:
        return self._closed

    def put_nowait(self, item: T) -> bool:
        """Append ``item``; False when the queue is full."""
        if self._closed:
            raise BufferClosedError("put on closed queue")
        if self.is_full:
            return False
        self._items.append(item)
        if self.on_size_change is not None:
            self.on_size_change(1)
        return True

    def put_many_nowait(self, items: list[T]) -> int:
        """Append the leading ``items`` that fit; returns how many did.

        One bulk append and one size report for a whole burst, so the
        receiving end of a batched link pays no per-message bookkeeping.
        """
        if self._closed:
            raise BufferClosedError("put on closed queue")
        n = len(items)
        if self._capacity is not None:
            n = min(n, self._capacity - len(self._items))
        if n <= 0:
            return 0
        self._items.extend(items if n == len(items) else items[:n])
        if self.on_size_change is not None:
            self.on_size_change(n)
        return n

    def put_force(self, item: T) -> None:
        """Append past the capacity bound (small control traffic only)."""
        if self._closed:
            raise BufferClosedError("put on closed queue")
        self._items.append(item)
        if self.on_size_change is not None:
            self.on_size_change(1)

    def get_nowait(self) -> T:
        """Remove the oldest item; ``IndexError`` when empty."""
        if not self._items:
            raise IndexError("queue empty")
        item = self._items.popleft()
        if self.on_size_change is not None:
            self.on_size_change(-1)
        if self._space:
            self._fire_space()
        return item

    def drain(self) -> list[T]:
        """Remove and return everything queued, oldest first."""
        items = list(self._items)
        self._items.clear()
        if items and self.on_size_change is not None:
            self.on_size_change(-len(items))
        if self._space:
            self._fire_space()
        return items

    def close(self) -> None:
        """Refuse further puts; queued items may still be taken."""
        if not self._closed:
            self._closed = True
            self._fire_space()

    def on_space(self, callback: Callable[[], None]) -> None:
        """Call ``callback()`` once, when an item next leaves (``get_nowait``
        or ``drain``) or the queue closes: where a blocked put would retry."""
        self._space.append(callback)

    def _fire_space(self) -> None:
        space, self._space = self._space, []
        for callback in space:
            callback()
