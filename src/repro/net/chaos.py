"""Deterministic fault injection for the asyncio transport.

The simulator can stall or cut a :class:`~repro.sim.link.SimLink`
directly; real sockets offer no such handle.  This module closes that
gap: a :class:`ChaosController` holds seedable fault policies, and
engines created with ``config.chaos`` route every peer connection
through a thin link wrapper that consults it.
The supported faults mirror (and extend) the sim toolkit:

- **connection refusal** — dialing a refused destination raises
  ``ConnectionRefusedError`` before any socket is opened (also
  probabilistically via ``refusal_rate``);
- **mid-stream reset** (:meth:`ChaosController.cut_link`) — both
  directions of the TCP connection fail loudly on the next IO and the
  underlying transport is aborted;
- **byte-level stall** (:meth:`ChaosController.stall_link`) — writes on
  the directed flow are silently swallowed and received frames held, with *no*
  error on either side: only the inactivity -> probe ladder can notice;
- **delayed accept** — inbound connections are held for a configurable
  time before the HELLO is processed;
- **message truncation** (:meth:`ChaosController.truncate_next`) — the
  next frame leaves half-written and the connection resets, exercising
  the receiver's mid-frame EOF path.

Faults are **one-shot against the connections live at injection time**,
exactly like the simulator's link faults: once a faulted link is torn
down, a supervised redial creates a clean connection and traffic may
resume.  Convergence after a fault therefore means *reconnected or torn
down*, never a permanent churn loop.

:class:`~repro.net.virtual.VirtualHost` built with ``chaos=`` runs a
localhost fleet of engines sharing one controller, with the fault verbs
a :class:`~repro.sim.failure.FailureSchedule` replays:
``schedule.arm(host)`` runs the same declarative schedule object that
drives the simulator, so robustness experiments run unchanged on either
backend.
"""

from __future__ import annotations

import random

from repro.core.ids import NodeId
from repro.errors import UnknownNodeError

__all__ = ["ChaosController"]


class _LinkChaos:
    """Mutable fault state of one directed flow ``src -> dst``."""

    __slots__ = ("mode", "truncate_armed", "swallowed_bytes", "_watchers")

    OK = "ok"
    STALL = "stall"
    RESET = "reset"

    def __init__(self) -> None:
        self.mode = self.OK
        self.truncate_armed = False
        self.swallowed_bytes = 0
        self._watchers: list = []

    def set_mode(self, mode: str) -> None:
        self.mode = mode
        watchers, self._watchers = self._watchers, []
        for watcher in watchers:
            watcher()

    def on_change(self, callback) -> None:
        """Call ``callback()`` once, at the next :meth:`set_mode`."""
        self._watchers.append(callback)


class _ChaosLink:
    """A TCP data link whose two flows consult their fault states.

    Outbound, a stall swallows writes, a truncation cuts the next write
    in half and aborts the connection, and a reset fails the write.
    Inbound, a stall holds the pushed frames and pauses reading until the
    flow changes, and a reset loses the link.  Everything else is the
    wrapped link's.
    """

    def __init__(self, out_state: _LinkChaos, in_state: _LinkChaos, link) -> None:
        self._out, self._in, self._link = out_state, in_state, link
        self._end = None
        self._held: list = []

    def __getattr__(self, name: str):
        return getattr(self._link, name)

    # --- inbound: this wrapper is the wrapped link's end -------------------------

    def attach(self, end) -> None:
        self._end = end
        self._link.attach(self)

    def on_frames(self, frames: list) -> None:
        mode = self._in.mode
        if mode == _LinkChaos.OK:
            self._end.on_frames(frames)
            return
        if mode == _LinkChaos.STALL and not self._held:
            self._link.pause_reading()
            self._in.on_change(self._unstall)
        self._held += frames  # counted by close() if they never go on
        if mode == _LinkChaos.RESET:
            self.on_lost(ConnectionResetError("chaos: link reset"))

    def _unstall(self) -> None:
        held, self._held = self._held, []
        if self._end is not None and held:
            self._link.resume_reading()
            self.on_frames(held)

    def on_lost(self, exc: BaseException) -> None:
        if self._end is not None:
            self._end.on_lost(exc)

    def on_writable(self) -> None:
        if self._end is not None:
            self._end.on_writable()

    # --- outbound ----------------------------------------------------------------

    def write(self, data) -> None:
        state = self._out
        if state.mode == _LinkChaos.RESET:
            raise ConnectionResetError("chaos: link reset")
        if state.mode == _LinkChaos.STALL:
            state.swallowed_bytes += len(data)
            return
        if state.truncate_armed and len(data) > 1:
            state.truncate_armed = False
            self._link.write(bytes(data)[: len(data) // 2])
            state.set_mode(_LinkChaos.RESET)
            self._link.transport.abort()  # the remote side sees a loud failure
            return
        self._link.write(data)

    def writelines(self, parts) -> None:
        """A burst: one transport write while the link is healthy.

        Under a fault each part meets :meth:`write` on its own, so the
        part that trips the truncation is cut in half and the rest of the
        burst fails on the reset it leaves behind.
        """
        state = self._out
        if state.mode == _LinkChaos.OK and not state.truncate_armed:
            self._link.writelines(parts)
            return
        for data in parts:
            self.write(data)

    def flush(self) -> bool:
        state = self._out
        if state.mode == _LinkChaos.RESET:
            raise ConnectionResetError("chaos: link reset")
        return state.mode == _LinkChaos.STALL or self._link.flush()

    def close(self) -> list:
        self._end = None
        held, self._held = self._held, []
        return held + self._link.close()


class ChaosController:
    """Seedable fault policies shared by every wrapped engine.

    All randomness (probabilistic refusals, jittered accept delays)
    comes from one ``random.Random(seed)``, so a chaos scenario replays
    identically under a fixed seed.
    """

    def __init__(self, seed: int = 0) -> None:
        self.rng = random.Random(seed)
        #: probability that any single dial attempt is refused
        self.refusal_rate = 0.0
        #: uniform delay applied to every inbound accept (seconds)
        self.accept_delay = 0.0
        self._refused: set[NodeId] = set()
        self._accept_delays: dict[NodeId, float] = {}
        self._links: dict[tuple[NodeId, NodeId], _LinkChaos] = {}
        self._writers: dict[tuple[NodeId, NodeId], list] = {}
        # injection counters (what chaos *did*, for assertions/reports)
        self.n_refusals = 0
        self.n_stalls = 0
        self.n_resets = 0
        self.n_truncations = 0

    # ------------------------------------------------------------ engine hooks

    def link(self, src: NodeId, dst: NodeId) -> _LinkChaos:
        """The fault state of the directed flow ``src -> dst``."""
        state = self._links.get((src, dst))
        if state is None:
            state = self._links[(src, dst)] = _LinkChaos()
        return state

    def check_connect(self, src: NodeId, dst: NodeId) -> None:
        """Raise ``ConnectionRefusedError`` if this dial must fail."""
        if dst in self._refused or (
            self.refusal_rate and self.rng.random() < self.refusal_rate
        ):
            self.n_refusals += 1
            raise ConnectionRefusedError(f"chaos: connect {src} -> {dst} refused")

    def accept_delay_for(self, node: NodeId) -> float:
        """Seconds an inbound accept on ``node`` is held before HELLO."""
        return self._accept_delays.get(node, self.accept_delay)

    def wrap(self, local: NodeId, remote: NodeId, link):
        """Wrap one peer connection's data link on ``local``'s side.

        Outgoing bytes ride the ``local -> remote`` flow; incoming bytes
        the ``remote -> local`` flow.  Both sides of a connection wrap
        against the *same* two :class:`_LinkChaos` states, so a fault
        injected on a directed flow applies wherever the bytes would
        cross it.
        """
        registered = self._writers.setdefault((local, remote), [])
        registered[:] = [w for w in registered if not w.transport.is_closing()]
        wrapped = _ChaosLink(self.link(local, remote), self.link(remote, local), link)
        registered.append(wrapped)
        # A fresh connection starts clean: faults are one-shot against the
        # links live at injection time (mirroring the sim, where a redial
        # creates a new, unfaulted SimLink).  Without this, a supervisor
        # redial after a confirmed death would inherit the old fault and
        # the pair would churn teardown/reconnect forever.
        self.link(local, remote).set_mode(_LinkChaos.OK)
        self.link(remote, local).set_mode(_LinkChaos.OK)
        return wrapped

    # ------------------------------------------------------------- fault verbs

    def refuse_connect(self, dst: NodeId) -> None:
        """All future dials to ``dst`` fail with ``ConnectionRefusedError``."""
        self._refused.add(dst)

    def allow_connect(self, dst: NodeId) -> None:
        self._refused.discard(dst)

    def set_accept_delay(self, node: NodeId, seconds: float) -> None:
        self._accept_delays[node] = seconds

    def stall_link(self, src: NodeId, dst: NodeId) -> None:
        """Silently stall ``src -> dst``: writes swallowed, reads parked.

        No socket error fires on either side — only engines with
        ``resilience.inactivity_timeout`` configured will ever notice.
        """
        self.n_stalls += 1
        self.link(src, dst).set_mode(_LinkChaos.STALL)

    def cut_link(self, src: NodeId, dst: NodeId) -> None:
        """Reset the connection between ``src`` and ``dst`` mid-stream.

        A TCP reset is loud in both directions; raises
        :class:`~repro.errors.UnknownNodeError` when no wrapped
        connection between the two endpoints ever existed (mirroring the
        sim's ``cut_link``).
        """
        writers = self._writers.get((src, dst), []) + self._writers.get((dst, src), [])
        if not writers:
            raise UnknownNodeError(f"no live link {src} -> {dst}")
        self.n_resets += 1
        self.link(src, dst).set_mode(_LinkChaos.RESET)
        self.link(dst, src).set_mode(_LinkChaos.RESET)
        for writer in writers:
            writer.transport.abort()

    def truncate_next(self, src: NodeId, dst: NodeId) -> None:
        """Truncate the next frame written on ``src -> dst``, then reset."""
        self.n_truncations += 1
        self.link(src, dst).truncate_armed = True
