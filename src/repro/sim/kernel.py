"""A deterministic discrete-event kernel driving ``async def`` tasks.

The paper's engine is a set of POSIX threads (receivers, senders, the
engine thread) that block on buffers and sockets.  We reproduce that
concurrency structure as coroutine tasks over *virtual time*: the same
blocking style (``await queue.get()``, ``await kernel.sleep(d)``), but
scheduled by timestamped events, so every run is exactly reproducible
and simulated hours execute in real-time seconds.

This kernel is intentionally independent of ``asyncio``: it drives
coroutines directly via ``send``/``throw``.  Any ``async def`` function
that only awaits this module's :class:`Future` objects (directly or
through other coroutines) can run on it.

Determinism guarantees:

- events fire in (time, creation sequence) order — FIFO among ties;
- task wake-ups are themselves events, so the interleaving is a pure
  function of the program and the seed.

Two event stores back those guarantees.  Timed events (``call_at``,
``call_later``, ``sleep``) live in a binary heap; *immediate* events
(``call_soon``, task wake-ups — the overwhelming majority in a message
switching workload) live in a FIFO ready deque and never touch the
heap.  Both carry the same global creation sequence, so draining them
in (time, sequence) order reproduces exactly the schedule a single
heap would have produced.

Timers are cancellable: ``call_at``/``call_later`` return a
:class:`TimerHandle`, and cancelling a task whose ``sleep`` is pending
retires the underlying timer immediately instead of leaving a dead
entry in the heap until its deadline.  Dead entries that do arise are
skipped on pop and compacted away when they outnumber the live ones,
so the heap stays bounded under arbitrary spawn/cancel churn.
"""

from __future__ import annotations

import heapq
from collections import deque
from random import Random
from typing import Any, Awaitable, Callable, Coroutine, Generator

from repro.errors import SimulationError

# A scheduled event is a mutable 4-slot list [when, seq, callback, args].
# Lists (not tuples) so cancellation can null the callback in place; the
# unique ``seq`` guarantees heap comparisons never reach the callback.
_WHEN, _SEQ, _CALLBACK, _ARGS = 0, 1, 2, 3

#: lazy heap compaction threshold: rebuild once dead timers both exceed
#: this floor and outnumber live entries (amortized O(1) per cancel)
_COMPACT_FLOOR = 64


class Cancelled(BaseException):
    """Raised inside a task when it is cancelled.

    Derives from ``BaseException`` (like ``asyncio.CancelledError``) so
    that blanket ``except Exception`` handlers in node code cannot
    swallow a termination request.
    """


class TimerHandle:
    """A cancellable reference to one timed event.

    Returned by :meth:`Kernel.call_at` and :meth:`Kernel.call_later`.
    ``cancel()`` is idempotent and O(1): the heap entry is retired in
    place and skipped (or compacted away) by the run loop.
    """

    __slots__ = ("_entry", "_kernel")

    def __init__(self, entry: list, kernel: "Kernel") -> None:
        self._entry = entry
        self._kernel = kernel

    @property
    def when(self) -> float:
        """The virtual time this timer fires (even after cancellation)."""
        return self._entry[_WHEN]

    @property
    def cancelled(self) -> bool:
        """True once cancelled (or already fired — the entry is spent)."""
        return self._entry[_CALLBACK] is None

    def cancel(self) -> None:
        """Retire the timer; a no-op if it already fired or was cancelled."""
        entry = self._entry
        if entry[_CALLBACK] is not None:
            entry[_CALLBACK] = None
            entry[_ARGS] = None
            self._kernel._timer_died()

    def __repr__(self) -> str:
        state = "cancelled/spent" if self.cancelled else f"at {self.when}"
        return f"TimerHandle({state})"


class Future:
    """A one-shot container for a value that a task can ``await``.

    The common case — exactly one waiter (the awaiting task) — is kept
    allocation-free: the first callback lands in a dedicated slot and
    only additional waiters grow a list.
    """

    __slots__ = ("_kernel", "_done", "_result", "_exception",
                 "_callback", "_callbacks", "_timer")

    def __init__(self, kernel: "Kernel") -> None:
        self._kernel = kernel
        self._done = False
        self._result: Any = None
        self._exception: BaseException | None = None
        self._callback: Callable[["Future"], None] | None = None
        self._callbacks: list[Callable[["Future"], None]] | None = None
        # The heap entry resolving this future, when it is a sleep; lets
        # task cancellation retire the timer instead of abandoning it.
        self._timer: list | None = None

    @property
    def done(self) -> bool:
        return self._done

    def set_result(self, value: Any = None) -> None:
        if self._done:
            raise SimulationError("future already resolved")
        self._done = True
        self._result = value
        self._fire()

    def set_exception(self, exc: BaseException) -> None:
        if self._done:
            raise SimulationError("future already resolved")
        self._done = True
        self._exception = exc
        self._fire()

    def result(self) -> Any:
        if not self._done:
            raise SimulationError("future not resolved yet")
        if self._exception is not None:
            raise self._exception
        return self._result

    def add_done_callback(self, callback: Callable[["Future"], None]) -> None:
        if self._done:
            callback(self)
        elif self._callback is None:
            self._callback = callback
        elif self._callbacks is None:
            self._callbacks = [callback]
        else:
            self._callbacks.append(callback)

    def _fire(self) -> None:
        callback = self._callback
        if callback is not None:
            self._callback = None
            callback(self)
        if self._callbacks is not None:
            callbacks, self._callbacks = self._callbacks, None
            for callback in callbacks:
                callback(self)

    def __await__(self) -> Generator["Future", None, Any]:
        if not self._done:
            yield self  # the running Task picks this up and parks on it
        return self.result()


class Task:
    """A coroutine being driven by the kernel."""

    __slots__ = ("_kernel", "_coro", "name", "_finished", "_result",
                 "_exception", "_cancelled", "_waiting_on", "_done_futures")

    def __init__(self, kernel: "Kernel", coro: Coroutine[Any, Any, Any], name: str) -> None:
        self._kernel = kernel
        self._coro = coro
        self.name = name
        self._finished = False
        self._result: Any = None
        self._exception: BaseException | None = None
        self._cancelled = False
        self._waiting_on: Future | None = None
        self._done_futures: list[Future] | None = None

    # --- state ------------------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self._finished

    def cancelled(self) -> bool:
        return self._cancelled

    def exception(self) -> BaseException | None:
        """The exception the task finished with (``None`` if it did not)."""
        return self._exception

    def result(self) -> Any:
        if not self._finished:
            raise SimulationError(f"task {self.name!r} has not finished")
        if self._exception is not None:
            raise self._exception
        return self._result

    def join(self) -> Future:
        """A future resolved when this task finishes (for ``await task.join()``)."""
        future = Future(self._kernel)
        if self._finished:
            future.set_result(self._result)
        else:
            if self._done_futures is None:
                self._done_futures = []
            self._done_futures.append(future)
        return future

    def add_done_callback(self, callback: Callable[["Task"], None]) -> None:
        """Call ``callback(task)`` when this task finishes (asyncio's surface)."""
        self.join().add_done_callback(lambda _future: callback(self))

    # --- control -----------------------------------------------------------------

    def cancel(self) -> None:
        """Request cancellation; the task sees :class:`Cancelled` at its next step."""
        if self._finished or self._cancelled:
            return
        self._cancelled = True
        # Detach from whatever it is waiting on; a pending sleep's timer
        # is retired immediately so it never lingers in the heap.
        waiting = self._waiting_on
        if waiting is not None:
            self._waiting_on = None
            timer = waiting._timer
            if timer is not None and timer[_CALLBACK] is not None:
                timer[_CALLBACK] = None
                timer[_ARGS] = None
                self._kernel._timer_died()
        self._kernel.call_soon(self._step_throw, Cancelled())

    # --- stepping ------------------------------------------------------------------

    def _step_send(self, value: Any) -> None:
        if self._finished:
            return
        try:
            yielded = self._coro.send(value)
        except StopIteration as stop:
            self._finish(result=stop.value)
        except Cancelled:
            self._finish(cancelled=True)
        except BaseException as exc:  # noqa: BLE001 - crash is recorded, re-raised by kernel
            self._finish(exception=exc)
        else:
            self._park(yielded)

    def _step_throw(self, exc: BaseException) -> None:
        if self._finished:
            return
        try:
            yielded = self._coro.throw(exc)
        except StopIteration as stop:
            self._finish(result=stop.value)
        except Cancelled:
            self._finish(cancelled=True)
        except BaseException as raised:  # noqa: BLE001
            self._finish(exception=raised)
        else:
            self._park(yielded)

    def _park(self, yielded: Any) -> None:
        if type(yielded) is not Future and not isinstance(yielded, Future):
            self._finish(
                exception=SimulationError(
                    f"task {self.name!r} awaited a non-kernel awaitable: {yielded!r}"
                )
            )
            return
        self._waiting_on = yielded
        yielded.add_done_callback(self._wake)

    def _wake(self, future: Future) -> None:
        # Ignore stale wake-ups from futures we abandoned on cancellation.
        if self._finished or future is not self._waiting_on:
            return
        self._waiting_on = None
        kernel = self._kernel
        seq = kernel._sequence
        kernel._sequence = seq + 1
        exc = future._exception
        if exc is not None:
            kernel._ready.append((seq, self._step_throw, (exc,)))
        else:
            kernel._ready.append((seq, self._step_send, (future._result,)))

    def _finish(
        self,
        result: Any = None,
        exception: BaseException | None = None,
        cancelled: bool = False,
    ) -> None:
        self._finished = True
        self._result = result
        self._exception = exception
        self._cancelled = cancelled or self._cancelled
        self._coro.close()
        self._kernel._task_finished(self)
        if self._done_futures is not None:
            for future in self._done_futures:
                if exception is not None:
                    future.set_exception(exception)
                else:
                    future.set_result(result)
            self._done_futures = None

    def __repr__(self) -> str:
        state = "finished" if self._finished else ("cancelled" if self._cancelled else "running")
        return f"Task({self.name!r}, {state})"


class Kernel:
    """The virtual-time event loop."""

    __slots__ = ("now", "_heap", "_ready", "_sequence", "_live",
                 "_halt", "_dead_timers", "rng")

    def __init__(self, seed: int = 0) -> None:
        #: current virtual time in seconds; read-only by convention (a
        #: plain slot, not a property: every callback reads it)
        self.now = 0.0
        #: timed events: a heap of [when, seq, callback, args] lists
        self._heap: list[list] = []
        #: immediate events: (seq, callback, args) in FIFO order
        self._ready: deque[tuple[int, Callable[..., None], tuple]] = deque()
        self._sequence = 0
        #: insertion-ordered set of unfinished tasks
        self._live: dict[Task, None] = {}
        #: tasks that stop :meth:`run`: crashed ones (re-raised) and the
        #: finished task of :meth:`run_until_complete`
        self._halt: list[Task] = []
        #: cancelled timers still sitting in the heap (compacted lazily)
        self._dead_timers = 0
        self.rng = Random(seed)

    # --- scheduling -----------------------------------------------------------------

    def _next_seq(self) -> int:
        seq = self._sequence
        self._sequence = seq + 1
        return seq

    def call_at(self, when: float, callback: Callable[..., None], *args: Any) -> TimerHandle:
        """Schedule ``callback(*args)`` at virtual time ``when``.

        Returns a :class:`TimerHandle` whose ``cancel()`` retires the
        event without waiting for its deadline.
        """
        if when < self.now:
            raise SimulationError(f"cannot schedule in the past: {when} < {self.now}")
        entry = [when, self._next_seq(), callback, args]
        heapq.heappush(self._heap, entry)
        return TimerHandle(entry, self)

    def call_later(self, delay: float, callback: Callable[..., None], *args: Any) -> TimerHandle:
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.call_at(self.now + delay, callback, *args)

    def call_soon(self, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` at the current virtual time.

        The fast path: lands in the FIFO ready deque, never the heap.
        """
        seq = self._sequence
        self._sequence = seq + 1
        self._ready.append((seq, callback, args))

    def sleep(self, delay: float) -> Future:
        """Awaitable that resolves ``delay`` virtual seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        future = Future(self)
        entry = [self.now + delay, self._next_seq(), self._resolve_sleep, (future,)]
        heapq.heappush(self._heap, entry)
        future._timer = entry
        return future

    @staticmethod
    def _resolve_sleep(future: Future) -> None:
        if not future.done:  # an abandoned sleeper's future resolves into the void
            future.set_result(None)

    def future(self) -> Future:
        return Future(self)

    # --- timer bookkeeping ------------------------------------------------------

    def _timer_died(self) -> None:
        """Account one cancelled heap entry; compact when they dominate.

        Compaction mutates the heap *in place* (slice assignment): the
        run loops hold a local alias to ``self._heap``, and rebinding to
        a fresh list here would strand them on the stale one whenever a
        callback cancels enough timers mid-run.
        """
        self._dead_timers = dead = self._dead_timers + 1
        if dead > _COMPACT_FLOOR and dead * 2 > len(self._heap):
            self._heap[:] = [entry for entry in self._heap if entry[_CALLBACK] is not None]
            heapq.heapify(self._heap)
            self._dead_timers = 0

    @property
    def pending_timers(self) -> int:
        """Live (non-cancelled) entries currently in the timer heap."""
        return len(self._heap) - self._dead_timers

    # --- tasks ---------------------------------------------------------------------

    def spawn(self, coro: Coroutine[Any, Any, Any], name: str | None = None) -> Task:
        """Start driving ``coro`` as a task (first step runs as an event *now*)."""
        task = Task(self, coro, name or getattr(coro, "__name__", "task"))
        self._live[task] = None
        self._ready.append((self._next_seq(), task._step_send, (None,)))
        return task

    def _task_finished(self, task: Task) -> None:
        self._live.pop(task, None)
        if task._exception is not None:
            self._halt.append(task)

    @property
    def live_tasks(self) -> list[Task]:
        """Unfinished tasks, in spawn order (no scan over finished ones)."""
        return list(self._live)

    # --- running ----------------------------------------------------------------------

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Process events in order until both stores drain or ``until`` passes.

        Returns the virtual time at which the run stopped.  If any task
        crashed with an exception, the first crash is re-raised so test
        failures surface immediately instead of as silent hangs; each
        crash is raised once, and a later run carries on past it.
        ``max_events`` is a debugging guard against zero-latency livelock
        (an unbounded cascade of same-timestamp events).
        """
        if until is not None and until < self.now:
            return self.now
        heap = self._heap
        ready = self._ready
        ready_pop = ready.popleft
        heappop = heapq.heappop
        halt = self._halt
        budget = -1 if max_events is None else max_events
        while True:
            if ready:
                # A timed event at the *current* timestamp created earlier
                # than the ready head must fire first (global FIFO order);
                # cancelled timers at the head are retired on the way.
                if heap:
                    head = heap[0]
                    while head[_CALLBACK] is None:
                        heappop(heap)
                        self._dead_timers -= 1
                        if not heap:
                            head = None
                            break
                        head = heap[0]
                    if head is not None and head[_WHEN] <= self.now and head[_SEQ] < ready[0][0]:
                        heappop(heap)
                        callback, args = head[_CALLBACK], head[_ARGS]
                        head[_CALLBACK] = head[_ARGS] = None  # mark spent
                    else:
                        _, callback, args = ready_pop()
                else:
                    _, callback, args = ready_pop()
            elif heap:
                head = heap[0]
                if head[_CALLBACK] is None:  # retired timer: skip, no event
                    heappop(heap)
                    self._dead_timers -= 1
                    continue
                when = head[_WHEN]
                if until is not None and when > until:
                    break
                heappop(heap)
                self.now = when
                callback, args = head[_CALLBACK], head[_ARGS]
                head[_CALLBACK] = head[_ARGS] = None  # mark spent
            else:
                break
            if budget >= 0:
                if budget == 0:
                    raise SimulationError(f"exceeded max_events={max_events} at t={self.now}")
                budget -= 1
            if args:
                callback(*args)
            else:
                callback()
            if halt:
                task = halt.pop(0)
                if task._exception is None:  # run_until_complete's task is done
                    return self.now
                halt[:] = [other for other in halt if other is not task]
                raise SimulationError(f"task {task.name!r} crashed") from task._exception
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def run_until_complete(self, coro: Coroutine[Any, Any, Any], timeout: float | None = None) -> Any:
        """Spawn ``coro``, run until it finishes, and return its result.

        This is :meth:`run` with one more way to stop: the task's
        completion.  On timeout the task is cancelled, events up to the
        deadline (including the cancellation throw itself) are drained,
        and :class:`SimulationError` is raised with virtual time resting
        exactly at the deadline.
        """
        task = self.spawn(coro, name="run_until_complete")
        task.add_done_callback(self._halt.append)
        deadline = None if timeout is None else self.now + timeout
        self.run(until=deadline)
        if task.finished:
            return task.result()
        if not self._ready and not self.pending_timers:
            raise SimulationError(
                f"deadlock: no scheduled events but {task.name!r} has not finished"
            )
        task.cancel()
        self.run(until=deadline)
        raise SimulationError(f"run_until_complete timed out after {timeout}s")


async def gather(*awaitables: Awaitable[Any]) -> list[Any]:
    """Await several kernel awaitables sequentially, returning their results.

    Sequential awaiting is sufficient under virtual time: awaiting an
    already-resolved future costs zero simulated time, so the wall-clock
    of the *simulation* is unaffected by the order.
    """
    return [await awaitable for awaitable in awaitables]
