"""Synchronization primitives for kernel tasks: queues and events.

These are the simulated counterparts of the paper's thread-safe circular
queues and wait/signal relationships between receiver, engine and sender
threads.  ``SimQueue.put`` on a full queue *blocks the calling task*,
which is exactly the mechanism that turns bounded buffers into back
pressure (Fig. 6b of the paper).

The implementation wakes **all** waiters whenever the queue state
changes and lets each waiter re-check; a waiter whose task has been
cancelled is then harmless (its future resolves into the void), which
keeps node termination (the observer's ``terminate`` command) safe.
A waiter is any zero-argument callable: a parked task's
``future.set_result``, or a plain callback registered with
:meth:`SimQueue.on_space` by code that waits without a task (the
simulated links' receiving ends).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Generic, TypeVar

from repro.errors import BufferClosedError
from repro.sim.kernel import Future, Kernel

T = TypeVar("T")


class SimQueue(Generic[T]):
    """A bounded FIFO queue whose put/get block the calling task."""

    def __init__(self, kernel: Kernel, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self._kernel = kernel
        self._capacity = capacity
        self._items: deque[T] = deque()
        self._getters: deque[Callable[[], None]] = deque()
        self._putters: deque[Callable[[], None]] = deque()
        self._closed = False
        #: optional listener called with the size delta after every
        #: mutation (see :class:`repro.core.buffer.CircularBuffer`)
        self.on_size_change = None

    # --- introspection --------------------------------------------------------------

    @property
    def capacity(self) -> int | None:
        return self._capacity

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_full(self) -> bool:
        return self._capacity is not None and len(self._items) >= self._capacity

    @property
    def is_empty(self) -> bool:
        return not self._items

    @property
    def closed(self) -> bool:
        return self._closed

    # --- operations -------------------------------------------------------------------

    async def put(self, item: T) -> None:
        """Append ``item``, blocking while the queue is full."""
        while True:
            if self._closed:
                raise BufferClosedError("put on closed queue")
            if not self.is_full:
                self._items.append(item)
                if self.on_size_change is not None:
                    self.on_size_change(1)
                self._wake(self._getters)
                return
            waiter = self._kernel.future()
            self._putters.append(waiter.set_result)
            await waiter

    def put_nowait(self, item: T) -> bool:
        """Append without blocking; returns False if the queue is full."""
        if self._closed:
            raise BufferClosedError("put on closed queue")
        if self.is_full:
            return False
        self._items.append(item)
        if self.on_size_change is not None:
            self.on_size_change(1)
        self._wake(self._getters)
        return True

    def put_force(self, item: T) -> None:
        """Append even when full (used for small control messages).

        Control traffic must never deadlock behind data back pressure
        (the paper keeps protocol messages flowing via the publicized
        port); forcing them past the capacity bound models that, at the
        cost of letting the queue exceed its nominal capacity by the —
        small — control volume.
        """
        if self._closed:
            raise BufferClosedError("put on closed queue")
        self._items.append(item)
        if self.on_size_change is not None:
            self.on_size_change(1)
        self._wake(self._getters)

    async def get(self) -> T:
        """Remove and return the oldest item, blocking while empty.

        Items still queued when the queue closes are drained normally;
        only a ``get`` on an empty closed queue raises
        :class:`~repro.errors.BufferClosedError`.
        """
        while True:
            if self._items:
                item = self._items.popleft()
                if self.on_size_change is not None:
                    self.on_size_change(-1)
                self._wake(self._putters)
                return item
            if self._closed:
                raise BufferClosedError("get on closed, drained queue")
            waiter = self._kernel.future()
            self._getters.append(waiter.set_result)
            await waiter

    def get_nowait(self) -> T:
        """Remove and return the oldest item; raises ``IndexError`` when empty."""
        if not self._items:
            raise IndexError("queue empty")
        item = self._items.popleft()
        if self.on_size_change is not None:
            self.on_size_change(-1)
        self._wake(self._putters)
        return item

    def on_space(self, callback: Callable[[], None]) -> None:
        """Call ``callback()`` once, where a parked ``put`` would be woken:
        when an item leaves, or the queue drains or closes."""
        self._putters.append(callback)

    def drain(self) -> list[T]:
        """Remove and return all queued items."""
        items = list(self._items)
        self._items.clear()
        if items and self.on_size_change is not None:
            self.on_size_change(-len(items))
        self._wake(self._putters)
        return items

    def close(self) -> None:
        """Refuse further puts and fail blocked waiters.

        Blocked putters and (once drained) blocked getters observe
        :class:`~repro.errors.BufferClosedError` — the simulated analogue
        of a socket operation failing on a torn-down connection.
        """
        if self._closed:
            return
        self._closed = True
        self._wake(self._getters)
        self._wake(self._putters)

    # --- internals ----------------------------------------------------------------------

    def _wake(self, waiters: deque[Callable[[], None]]) -> None:
        while waiters:
            waiters.popleft()()


class SimEvent:
    """A level-triggered event flag tasks can wait on."""

    def __init__(self, kernel: Kernel) -> None:
        self._kernel = kernel
        self._flag = False
        self._waiters: deque[Future] = deque()

    @property
    def is_set(self) -> bool:
        return self._flag

    def set(self) -> None:
        self._flag = True
        while self._waiters:
            self._waiters.popleft().set_result(None)

    def clear(self) -> None:
        self._flag = False

    async def wait(self) -> None:
        while not self._flag:
            waiter = self._kernel.future()
            self._waiters.append(waiter)
            await waiter
