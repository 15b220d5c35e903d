"""The one task owner outside the engines.

The control plane's two halves — the supervisor
(:mod:`repro.cluster.supervise`) and the host (:mod:`repro.cluster.host`)
— the observer plane's endpoints (:mod:`repro.net.observer_link`
under :class:`~repro.net.observer_server.ObserverServer` and
:class:`~repro.net.proxy.ObserverProxy`), a virtual host's schedule
actions (:class:`~repro.net.virtual.VirtualHost`) and each shm link's
socket listener (:class:`~repro.net.shm.ShmEndpoint`) run their
background work through one :class:`TaskSet` each, in the manner of
``EngineCore._launch`` / ``_teardown``: finished tasks drop out on their
own, an exception nobody awaited is reported at once through the loop's
exception handler (and the owner's trace log) instead of surfacing at
garbage collection, and teardown is one call.  :meth:`TaskSet.launch` is
the only place outside the engines that creates a task.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Coroutine


class TaskSet:
    """A self-pruning set of background tasks with one-call teardown."""

    def __init__(
        self, owner: str,
        on_error: Callable[[str, BaseException], None] | None = None,
    ) -> None:
        self._owner = owner
        #: called as (task name, exception) after the report below, for
        #: an owner that also wants the failure in its trace log
        self._on_error = on_error
        self._tasks: set[asyncio.Task] = set()

    def __len__(self) -> int:
        return len(self._tasks)

    def launch(self, coro: Coroutine, name: str) -> asyncio.Task:
        """Run ``coro`` as a background task owned by this set."""
        task = asyncio.ensure_future(coro)
        task.set_name(name)
        self._tasks.add(task)
        task.add_done_callback(self._done)
        return task

    def _done(self, task: asyncio.Task) -> None:
        self._tasks.discard(task)
        exc = None if task.cancelled() else task.exception()
        if exc is None:
            return
        # Nobody awaits a background task: report its failure now, the
        # way the loop reports any unhandled error, not at collection.
        task.get_loop().call_exception_handler({
            "message": f"{self._owner}: background task {task.get_name()!r} failed",
            "exception": exc,
            "task": task,
        })
        if self._on_error is not None:
            self._on_error(task.get_name(), exc)

    def teardown(self, keep: asyncio.Task | None = None) -> None:
        """Cancel what is left (``keep``: the task running the shutdown)."""
        for task in [task for task in self._tasks if task is not keep]:
            task.cancel()

    async def settle(self) -> None:
        """Wait until every task in the set has ended on its own."""
        while self._tasks:
            await asyncio.wait(list(self._tasks))
