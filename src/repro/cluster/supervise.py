"""The supervision core: spawn, reap, heartbeat, death ladder, respawn.

Both tiers of the control plane supervise a set of *children* the same
way — the :class:`~repro.cluster.controller.ClusterController` watches
worker processes, the federated root controller watches whole child
controllers — so the mechanics live here once, over an abstract child
handle (:class:`ChildState`):

- **spawn**: launch a subprocess from a frontend-built argv and await
  its registration frame on the control server (children that *join*
  over plain TCP instead of being launched are *adopted*: same state
  machine, no process to reap or respawn);
- **death ladder**: a reaped process, a channel EOF and a heartbeat
  silence window all confirm the same death exactly once;
- **respawn**: a dead spawned child relaunches under a
  *consecutive-respawn budget* with exponential backoff
  (:class:`RespawnPolicy`) — a child that crash-loops on boot burns its
  budget and is abandoned with a ``respawn-exhausted`` trace instead of
  spinning the fleet forever; surviving longer than ``min_uptime``
  resets the streak;
- **teardown**: :meth:`SupervisorCore.stop` is idempotent and safe
  against in-flight respawns — a subprocess created while stop() runs
  is killed, never orphaned.

Every tier speaks the one ``W_*`` frame family
(:mod:`repro.cluster.protocol`); a frontend subclasses the core and
overrides the template hooks for registration, heartbeats, death
bookkeeping and orphan re-placement.  Control frames are outside input
(the federation root accepts joins from anywhere), so nothing here
trusts them: a registration that does not validate is refused, an
upward frame whose payload does not decode is dropped with a
``control-fault`` trace, and a frame that does not decode at all (the
stream is unaligned from there on) takes the ordinary death path.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass
from typing import Any

from repro.cluster.protocol import REPLIES, ControlChannel
from repro.core.message import Message
from repro.core.msgtypes import MsgType
from repro.errors import ClusterError, CodecError
from repro.net.tasks import TaskSet
from repro.telemetry.tracing import EventType


@dataclass
class RespawnPolicy:
    """Budgeted exponential backoff for crash-looping children."""

    #: consecutive early deaths tolerated before giving up on the child
    max_consecutive: int = 5
    #: backoff before the 2nd consecutive respawn; doubles per streak step
    backoff_base: float = 0.25
    #: backoff ceiling
    backoff_max: float = 5.0
    #: surviving this long after registration resets the streak to zero
    min_uptime: float = 5.0

    def delay(self, streak: int) -> float:
        """Backoff before respawn attempt number ``streak`` (1-based)."""
        if streak <= 1:
            return 0.0
        return min(self.backoff_max, self.backoff_base * 2 ** (streak - 2))


@dataclass
class ChildState:
    """The abstract child handle: everything the core supervises."""

    name: str
    process: Any = None  # asyncio.subprocess.Process (None when adopted)
    chan: ControlChannel | None = None
    pid: int = 0
    alive: bool = False
    shutting_down: bool = False
    #: joined over TCP instead of being launched here: nothing to reap,
    #: nothing to respawn — death bookkeeping is all that applies
    adopted: bool = False
    last_heartbeat: float = 0.0
    #: when registration completed (uptime feeds the respawn streak)
    spawned_at: float = 0.0


class SupervisorCore:
    """Supervises a set of children over one control server.

    Frontends subclass and override the template hooks:

    ``child_argv(state)``
        argv for (re)launching the child; ``None`` marks the child
        non-respawnable (adopted children never consult it).
    ``child_env(state)``
        environment for the subprocess (``None`` inherits).
    ``on_registered(state, fields)``
        the child's registration fields arrived (identity facts); may
        answer on ``state.chan``.  Raising ``ValueError``/``TypeError``
        (a field of the wrong type) or a socket error refuses the child.
    ``on_heartbeat(state, fields)``
        a heartbeat's gauge fields arrived.
    ``on_frame(state, type_, fields)``
        any other non-reply upward frame, payload decoded.
    ``on_child_dead(state, reason)``
        death bookkeeping; returns the *orphans* to hand to
        ``replace_orphans`` after a successful respawn.
    ``replace_orphans(state, orphans)``
        re-place what the dead incarnation hosted.
    ``trace(event, **detail)``
        bridge to the frontend's telemetry (default: drop).
    """

    #: state dataclass instantiated per child (frontends override)
    state_class: type[ChildState] = ChildState

    def __init__(
        self,
        *,
        ip: str = "127.0.0.1",
        heartbeat_interval: float = 0.5,
        heartbeat_timeout: float = 3.0,
        register_timeout: float = 20.0,
        request_timeout: float = 20.0,
        respawn: RespawnPolicy | None = None,
        adopt_unknown: bool = False,
    ) -> None:
        self.ip = ip
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.register_timeout = register_timeout
        self.request_timeout = request_timeout
        #: the budget a dead spawned child relaunches under (None: never)
        self.respawn = respawn
        #: accept registrations from children this supervisor did not
        #: launch (the federation root adopts remote ``--join`` daemons)
        self.adopt_unknown = adopt_unknown
        self.children: dict[str, ChildState] = {}
        self.port = 0
        self._server: asyncio.AbstractServer | None = None
        self._seq = itertools.count(1)
        self._pending: dict[int, asyncio.Future] = {}
        self._register_waiters: dict[str, asyncio.Future] = {}
        self._respawn_streak: dict[str, int] = {}
        self._tasks = TaskSet(type(self).__name__, self._task_failed)
        self._running = False
        #: set once stop() has fully torn down; a second stop() awaits it
        self._stopped: asyncio.Event | None = None
        self.deaths = 0
        self.respawns_abandoned = 0

    # ----------------------------------------------------------- template hooks

    def child_argv(self, state: ChildState) -> list[str] | None:
        raise NotImplementedError

    def child_env(self, state: ChildState) -> dict[str, str] | None:
        return None

    async def on_registered(self, state: ChildState, fields: dict) -> None:
        pass

    def on_heartbeat(self, state: ChildState, fields: dict) -> None:
        pass

    def on_frame(self, state: ChildState, type_: int, fields: dict) -> None:
        pass

    async def on_child_dead(self, state: ChildState, reason: str) -> list:
        return []

    async def replace_orphans(self, state: ChildState, orphans: list) -> None:
        pass

    def trace(self, event: str, **detail: Any) -> None:
        pass

    def _task_failed(self, name: str, exc: BaseException) -> None:
        self.trace(EventType.CONTROL_FAULT, stage="task", task=name, error=repr(exc))

    # ---------------------------------------------------------------- lifecycle

    async def start_server(self) -> None:
        """Bind the control server children register against."""
        if self._running:
            raise RuntimeError("supervisor already started")
        self._running = True
        self._stopped = None
        self._server = await asyncio.start_server(self._accept, host=self.ip, port=0)
        self.port = self._server.sockets[0].getsockname()[1]
        self._tasks.launch(self._sweep_loop(), "sweep")

    async def stop(self) -> None:
        """Drain every child, then reap with escalation.

        Idempotent and re-entrant: a concurrent or nested call awaits
        the first one instead of racing it, and a respawn in flight
        cannot leak a half-spawned process — its creation future is
        tracked, and whatever it produces after cancellation is killed.
        """
        if self._stopped is not None:
            await self._stopped.wait()
            return
        if not self._running:
            return
        self._stopped = asyncio.Event()
        try:
            self._running = False
            # Stop accepting first: with adopt_unknown a join landing
            # mid-teardown would otherwise grow self.children under us.
            if self._server is not None:
                self._server.close()
            self._tasks.teardown()
            for state in list(self.children.values()):
                state.shutting_down = True
                if state.alive and state.chan is not None and not state.chan.is_closing():
                    try:
                        await state.chan.send(MsgType.W_SHUTDOWN)
                    except (ConnectionError, OSError):
                        pass
            for state in list(self.children.values()):
                await self._reap_with_escalation(state)
                state.alive = False
                if state.chan is not None:
                    state.chan.close()
                    state.chan = None
            if self._server is not None:
                await self._server.wait_closed()
                self._server = None
            for fut in self._pending.values():
                if not fut.done():
                    fut.cancel()
            self._pending.clear()
            for fut in self._register_waiters.values():
                if not fut.done():
                    fut.cancel()
            self._register_waiters.clear()
        finally:
            self._stopped.set()

    async def _reap_with_escalation(self, state: ChildState) -> None:
        proc = state.process
        if proc is None or proc.returncode is not None:
            return
        try:
            await asyncio.wait_for(proc.wait(), 5.0)
            return
        except asyncio.TimeoutError:
            proc.terminate()
        try:
            await asyncio.wait_for(proc.wait(), 2.0)
        except asyncio.TimeoutError:
            proc.kill()
            await proc.wait()

    # ----------------------------------------------------------------- spawning

    async def launch_child(self, name: str) -> ChildState:
        """Launch one child process and wait for its registration."""
        if not self._running:
            raise ClusterError(f"cannot spawn {name!r}: supervisor is stopped")
        existing = self.children.get(name)
        if existing is not None and existing.alive:
            raise ClusterError(f"child {name!r} is already running")
        state = self.state_class(name=name)
        self.children[name] = state
        argv = self.child_argv(state)
        if argv is None:
            raise ClusterError(f"child {name!r} is not launchable from here")
        waiter: asyncio.Future = asyncio.get_running_loop().create_future()
        self._register_waiters[name] = waiter
        try:
            # Awaited in place: a cancellation landing mid-exec (stop()
            # racing a respawn) is handled by asyncio itself, which kills
            # and reaps the half-made process before re-raising.
            try:
                state.process = await asyncio.create_subprocess_exec(
                    *argv, env=self.child_env(state)
                )
            except OSError as exc:
                raise ClusterError(f"cannot launch child {name!r}: {exc}") from exc
            if not self._running:
                # stop() ran while the exec was in flight: the teardown
                # loop may already have passed this state — reap here.
                state.process.kill()
                await state.process.wait()
                raise ClusterError(f"child {name!r} spawned during shutdown")
            try:
                await asyncio.wait_for(waiter, self.register_timeout)
            except asyncio.TimeoutError:
                # Kill and reap the straggler: left alive it would leak,
                # and a late registration from it could attach a stale
                # process's channel to a newer incarnation of this name.
                pid = state.process.pid
                if state.process.returncode is None:
                    state.process.kill()
                    await state.process.wait()
                raise ClusterError(
                    f"child {name!r} (pid {pid}) did not register "
                    f"within {self.register_timeout}s"
                ) from None
        finally:
            self._register_waiters.pop(name, None)
        state.alive = True
        now = time.monotonic()
        state.last_heartbeat = now
        state.spawned_at = now
        self._tasks.launch(self._reap(state), f"reap-{name}")
        return state

    async def _reap(self, state: ChildState) -> None:
        """Fast crash detection: the OS tells us the moment a child exits."""
        proc = state.process
        if proc is None:
            return
        returncode = await proc.wait()
        await self._child_dead(state, reason=f"exit={returncode}")

    # ----------------------------------------------------------- control channel

    async def _accept(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        chan = ControlChannel(reader, writer)
        try:
            first = await asyncio.wait_for(chan.recv(), self.register_timeout)
            if first.type != MsgType.W_REGISTER:
                raise CodecError(f"expected W_REGISTER, got type {first.type}")
            fields = first.fields()
            name, pid = str(fields.get("name", "")), int(fields.get("pid", 0))
        except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                ConnectionError, OSError):
            chan.close()
            return
        except (CodecError, TypeError, ValueError) as exc:
            self._refuse(chan, "", f"undecodable first frame: {exc}")
            return
        state = self.children.get(name)
        if state is None:
            if not self.adopt_unknown or not name:
                self._refuse(chan, name, "not a child of this supervisor")
                return
            state = self.state_class(name=name)
            state.adopted = True
        elif state.alive and state.chan is not None and not state.chan.is_closing():
            self._refuse(chan, name, "a live child already owns this name")
            return
        elif state.process is not None and pid != state.process.pid:
            # A stale incarnation (e.g. one that outlived its register
            # timeout) must not satisfy a newer respawn's registration.
            self._refuse(chan, name, f"stale incarnation (pid {pid})")
            return
        state.chan, state.pid = chan, pid
        try:
            await self.on_registered(state, fields)
        except (TypeError, ValueError, ConnectionError, OSError) as exc:
            state.chan = None
            self._refuse(chan, name, f"registration failed: {exc!r}")
            return
        if state.adopted:
            now = time.monotonic()
            self.children[name] = state
            state.alive = True
            state.shutting_down = False
            state.last_heartbeat = now
            state.spawned_at = now
        waiter = self._register_waiters.pop(name, None)
        if waiter is not None and not waiter.done():
            waiter.set_result(state)
        reason = "channel-eof"
        while self._running:
            try:
                msg = await chan.recv()
            except (asyncio.IncompleteReadError, ConnectionError, OSError):
                break
            except CodecError:
                # The stream is unaligned from here on: nothing that
                # follows can be trusted, so this is a death, at once.
                reason = "bad-frame"
                break
            self._dispatch(state, msg)
        await self._child_dead(state, reason)

    def _refuse(self, chan: ControlChannel, name: str, why: str) -> None:
        """Close a channel whose registration did not validate."""
        self.trace(EventType.CONTROL_FAULT, stage="register", child=name, error=why)
        chan.close()

    def _dispatch(self, state: ChildState, msg: Message) -> None:
        if msg.type in REPLIES:
            future = self._pending.pop(msg.seq, None)
            if future is not None and not future.done():
                future.set_result(msg)
            return
        try:
            fields = msg.fields()
            if msg.type == MsgType.W_HEARTBEAT:
                self.on_heartbeat(state, fields)
                state.last_heartbeat = time.monotonic()
            else:
                self.on_frame(state, msg.type, fields)
        except (CodecError, TypeError, ValueError) as exc:
            # Dropped, not fatal: the frame itself parsed, so the stream
            # is still aligned.  A heartbeat that does not decode is not
            # a heartbeat — a child sending only those times out.
            self.trace(
                EventType.CONTROL_FAULT, stage="frame", child=state.name,
                type=msg.type, error=str(exc),
            )

    async def request(self, state: ChildState, type_: int, **fields: Any) -> dict:
        """One correlated request/reply round trip on a child's channel."""
        if not state.alive or state.chan is None or state.chan.is_closing():
            raise ClusterError(f"child {state.name!r} is not live")
        seq = next(self._seq)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[seq] = future
        try:
            await state.chan.send(type_, seq=seq, **fields)
        except (ConnectionError, OSError) as exc:
            self._pending.pop(seq, None)
            raise ClusterError(f"child {state.name!r} channel failed: {exc}") from exc
        try:
            reply = await asyncio.wait_for(future, self.request_timeout)
        except asyncio.TimeoutError:
            self._pending.pop(seq, None)
            raise ClusterError(
                f"child {state.name!r} did not answer request type {type_} "
                f"within {self.request_timeout}s"
            ) from None
        except asyncio.CancelledError:
            self._pending.pop(seq, None)
            task = asyncio.current_task()
            if task is not None and task.cancelling():
                raise  # the caller itself is being cancelled
            # Only the pending future was cancelled (teardown dropped it).
            raise ClusterError(
                f"child {state.name!r} request type {type_} was dropped "
                "during teardown"
            ) from None
        try:
            result = reply.fields()
        except CodecError as exc:
            raise ClusterError(f"child {state.name!r} sent a bad reply: {exc}") from exc
        if "error" in result:
            raise ClusterError(f"child {state.name!r}: {result['error']}")
        return result

    # --------------------------------------------------------------- supervision

    async def _sweep_loop(self) -> None:
        """Confirm silent deaths the EOF/reap paths cannot see."""
        interval = max(0.05, self.heartbeat_interval / 2)
        while self._running:
            await asyncio.sleep(interval)
            if not self._running:
                return
            now = time.monotonic()
            for state in list(self.children.values()):
                if (
                    state.alive
                    and not state.shutting_down
                    and now - state.last_heartbeat > self.heartbeat_timeout
                ):
                    await self._child_dead(state, reason="heartbeat-timeout")

    async def _child_dead(self, state: ChildState, reason: str) -> None:
        """Confirm one death (idempotent across the three detection paths)."""
        if not self._running or not state.alive or state.shutting_down:
            return
        state.alive = False  # before any await: later detections no-op
        self.deaths += 1
        if state.chan is not None:
            state.chan.close()
            state.chan = None
        orphans = await self.on_child_dead(state, reason)
        if self.respawn is not None and not state.adopted and self._running:
            self._tasks.launch(self._respawn(state.name, orphans), f"respawn-{state.name}")

    async def _respawn(self, name: str, orphans: list) -> None:
        """Relaunch a dead child under the consecutive-respawn budget."""
        policy = self.respawn
        while self._running:
            state = self.children[name]
            if state.spawned_at and time.monotonic() - state.spawned_at >= policy.min_uptime:
                self._respawn_streak[name] = 0  # it had a healthy run
            streak = self._respawn_streak.get(name, 0) + 1
            self._respawn_streak[name] = streak
            if streak > policy.max_consecutive:
                self.respawns_abandoned += 1
                self.trace(EventType.RESPAWN_EXHAUSTED, child=name, attempts=streak - 1)
                return
            delay = policy.delay(streak)
            if delay > 0:
                self.trace(
                    EventType.RESPAWN_BACKOFF, child=name,
                    attempt=streak, delay=round(delay, 3),
                )
                await asyncio.sleep(delay)
                if not self._running:
                    return
            try:
                fresh = await self.launch_child(name)
            except ClusterError:
                # A boot failure (register timeout, exec error) burns
                # budget exactly like an early death: go round again.
                continue
            await self.replace_orphans(fresh, orphans)
            return
