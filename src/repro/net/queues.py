"""A bounded asyncio queue with the engine's required surface.

``asyncio.Queue`` lacks close semantics and a capacity-exempt put for
small control messages, so the asyncio engine uses this thin primitive
with the exact surface of :class:`repro.sim.sync.SimQueue` — keeping the
switch logic of both engines structurally identical.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Callable, Generic, TypeVar

from repro.errors import BufferClosedError

T = TypeVar("T")


class AsyncBoundedQueue(Generic[T]):
    """Bounded FIFO with blocking put/get, force-put and close."""

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self._capacity = capacity
        self._items: deque[T] = deque()
        self._closed = False
        self._getters: deque[asyncio.Future] = deque()
        self._putters: deque[asyncio.Future] = deque()
        #: optional listener called with the size delta after every
        #: mutation (see :class:`repro.core.buffer.CircularBuffer`)
        self.on_size_change = None

    # --- introspection --------------------------------------------------------------

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
        """True when no items are queued."""
        return not self._items

    @property
    def closed(self) -> bool:
        """True once close() was called; puts then raise."""
        return self._closed

    # --- operations -------------------------------------------------------------------

    async def put(self, item: T) -> None:
        """Append ``item``, parking the task while the queue is full."""
        while True:
            if self._closed:
                raise BufferClosedError("put on closed queue")
            if not self.is_full:
                self._items.append(item)
                if self.on_size_change is not None:
                    self.on_size_change(1)
                self._wake(self._getters)
                return
            waiter = asyncio.get_running_loop().create_future()
            self._putters.append(waiter)
            try:
                await waiter
            except asyncio.CancelledError:
                if waiter in self._putters:
                    self._putters.remove(waiter)
                raise

    def put_nowait(self, item: T) -> bool:
        """Append without blocking; False when the queue is full."""
        if self._closed:
            raise BufferClosedError("put on closed queue")
        if self.is_full:
            return False
        self._items.append(item)
        if self.on_size_change is not None:
            self.on_size_change(1)
        self._wake(self._getters)
        return True

    def put_many_nowait(self, items: list[T], start: int = 0) -> int:
        """Append ``items[start:]`` up to capacity; returns how many fit.

        One bulk append plus one waiter wake for a whole batch — the
        batched receiver path uses this so a burst of frames does not
        pay per-message queue bookkeeping.
        """
        if self._closed:
            raise BufferClosedError("put on closed queue")
        n = len(items) - start
        if self._capacity is not None:
            n = min(n, self._capacity - len(self._items))
        if n <= 0:
            return 0
        if start == 0 and n == len(items):
            self._items.extend(items)
        else:
            self._items.extend(items[start : start + n])
        if self.on_size_change is not None:
            self.on_size_change(n)
        self._wake(self._getters)
        return n

    def put_force(self, item: T) -> None:
        """Append past the capacity bound (small control traffic only)."""
        if self._closed:
            raise BufferClosedError("put on closed queue")
        self._items.append(item)
        if self.on_size_change is not None:
            self.on_size_change(1)
        self._wake(self._getters)

    async def get(self) -> T:
        """Remove the oldest item, parking while empty; drains after close."""
        while True:
            if self._items:
                item = self._items.popleft()
                if self.on_size_change is not None:
                    self.on_size_change(-1)
                self._wake(self._putters)
                return item
            if self._closed:
                raise BufferClosedError("get on closed, drained queue")
            waiter = asyncio.get_running_loop().create_future()
            self._getters.append(waiter)
            try:
                await waiter
            except asyncio.CancelledError:
                if waiter in self._getters:
                    self._getters.remove(waiter)
                raise

    def get_nowait(self) -> T:
        """Remove the oldest item; IndexError when empty."""
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
        """Remove and return everything queued, oldest first."""
        items = list(self._items)
        self._items.clear()
        if items and self.on_size_change is not None:
            self.on_size_change(-len(items))
        self._wake(self._putters)
        return items

    def close(self) -> None:
        """Refuse further puts; blocked waiters observe BufferClosedError."""
        if self._closed:
            return
        self._closed = True
        self._wake(self._getters)
        self._wake(self._putters)

    # --- internals ----------------------------------------------------------------------

    def _wake(self, waiters: deque) -> None:
        while waiters:
            waiter = waiters.popleft()
            if not isinstance(waiter, asyncio.Future):
                waiter()  # an on_space callback
            elif not waiter.done():
                waiter.set_result(None)
