"""Blocking synchronization for kernel tasks: a queue and an event.

The engines never block on a buffer: their link ends are callbacks on
:class:`repro.core.buffer.BoundedQueue`.  ``SimQueue`` adds to that
queue the task-parking ``put``/``get`` of the paper's thread-safe
circular queues — a ``put`` on a full queue *blocks the calling task*,
the mechanism that turns bounded buffers into back pressure (Fig. 6b) —
for code that runs as kernel tasks (tests, micro-benchmarks).

A blocked task re-checks the queue whenever it is woken, so a waiter
whose task has been cancelled is harmless (its future resolves into the
void).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, TypeVar

from repro.core.buffer import BoundedQueue
from repro.errors import BufferClosedError
from repro.sim.kernel import Future, Kernel

T = TypeVar("T")


class SimQueue(BoundedQueue[T]):
    """A :class:`BoundedQueue` whose ``put``/``get`` can park a kernel task."""

    __slots__ = ("_kernel", "_getters")

    def __init__(self, kernel: Kernel, capacity: int | None = None) -> None:
        super().__init__(capacity)
        self._kernel = kernel
        self._getters: deque[Callable[[], None]] = deque()

    async def put(self, item: T) -> None:
        """Append ``item``, blocking while the queue is full."""
        while not self.put_nowait(item):
            waiter = self._kernel.future()
            self.on_space(waiter.set_result)
            await waiter

    async def get(self) -> T:
        """Remove and return the oldest item, blocking while empty.

        Items still queued when the queue closes are drained normally;
        only a ``get`` on an empty closed queue raises
        :class:`~repro.errors.BufferClosedError`.
        """
        while not self._items:
            if self._closed:
                raise BufferClosedError("get on closed, drained queue")
            waiter = self._kernel.future()
            self._getters.append(waiter.set_result)
            await waiter
        return self.get_nowait()

    def put_nowait(self, item: T) -> bool:
        if not BoundedQueue.put_nowait(self, item):
            return False
        self._wake_getters()
        return True

    def put_many_nowait(self, items: list[T]) -> int:
        n = BoundedQueue.put_many_nowait(self, items)
        if n:
            self._wake_getters()
        return n

    def put_force(self, item: T) -> None:
        BoundedQueue.put_force(self, item)
        self._wake_getters()

    def close(self) -> None:
        """Refuse further puts and fail blocked waiters.

        Blocked putters and (once drained) blocked getters observe
        :class:`~repro.errors.BufferClosedError` — the simulated analogue
        of a socket operation failing on a torn-down connection.
        """
        self._wake_getters()
        BoundedQueue.close(self)

    def _wake_getters(self) -> None:
        getters = self._getters
        while getters:
            getters.popleft()()


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
