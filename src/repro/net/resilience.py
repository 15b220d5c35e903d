"""Connection supervision policies for the asyncio engine.

The paper's failure handling is *passive*: socket errors, broken pipes
and traffic inactivity (Section 3.1).  The live engine layers three
small, deterministic policies on top of that passive core:

- :class:`BackoffPolicy` — bounded exponential backoff with seeded
  jitter, shared by peer redials and observer reconnects, so transient
  connect failures are retried within a configurable budget instead of
  giving up after one attempt;
- :class:`LinkHealth` — the ``LIVE -> SUSPECT -> PROBING -> DEAD``
  ladder driven by traffic inactivity and probe timeouts, the real-path
  twin of the simulator's ``stall_link`` detection.  Probes are sent
  *only* after inactivity raises suspicion (reactive, on-demand), never
  as periodic heartbeats — the paper forbids active heartbeating;
- :class:`ObserverOutbox` — a bounded, drop-oldest buffer that carries
  status/trace messages across observer reconnects, so a status report
  never vanishes without at least a counted drop.

Everything here is pure policy (no IO): the engine and the observer
uplink (:mod:`repro.net.observer_link`) own the sockets and ask these
objects what to do next, which keeps the layer unit-testable
and the injected randomness reproducible under a fixed seed.

These policies are transport-agnostic on purpose.  A shared-memory ring
link (:mod:`repro.net.shm`) keeps its TCP socket open as the liveness
channel, so socket EOF still signals peer death instantly, and reactive
``HEARTBEAT`` probes ride the ring like any other frame — the
``LIVE -> SUSPECT -> PROBING -> DEAD`` ladder needs no shm-specific
branch.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from repro.core.message import Message


class LinkHealth:
    """States of one peer link's failure-detection ladder."""

    LIVE = "live"          # traffic observed within the inactivity window
    SUSPECT = "suspect"    # silent too long; a probe is being dispatched
    PROBING = "probing"    # probe in flight, awaiting any return traffic
    DEAD = "dead"          # probe timed out; the link is being torn down

    ALL = (LIVE, SUSPECT, PROBING, DEAD)


@dataclass
class ResilienceConfig:
    """Tunables of the engine's resilience layer.

    The defaults keep the engine's historical behaviour wherever a
    feature is new: inactivity detection is off until a timeout is
    configured, while connect retries and observer reconnection are on
    (they only change outcomes that were previously hard failures).
    """

    #: connect attempts per peer dial (>= 1); the retry budget
    connect_retries: int = 3
    #: first backoff delay (seconds); doubles per failed attempt
    backoff_base: float = 0.05
    #: ceiling on a single backoff delay (seconds)
    backoff_max: float = 2.0
    #: jitter fraction added on top of the deterministic delay
    backoff_jitter: float = 0.1
    #: seed for the jitter RNG — fixed seed, fixed delays
    seed: int = 0
    #: seconds of receive silence before a peer becomes SUSPECT;
    #: ``None`` disables the watchdog (socket errors still detect)
    inactivity_timeout: float | None = None
    #: how long a liveness probe may go unanswered before DEAD
    probe_timeout: float = 1.0
    #: bounded observer outbox capacity (messages); overflow drops oldest
    observer_outbox: int = 256
    #: ceiling on one observer-reconnect backoff delay (seconds)
    observer_backoff_max: float = 5.0
    #: give up after this many consecutive observer redial failures
    #: (``None`` = keep trying for the life of the node; ``0`` = never
    #: redial a lost observer link)
    observer_retry_budget: int | None = None

    def watchdog_interval(self) -> float:
        """The wake period of the inactivity watchdog, derived from the timeouts."""
        assert self.inactivity_timeout is not None
        return max(min(self.inactivity_timeout, self.probe_timeout) / 2.0, 0.01)


class BackoffPolicy:
    """Bounded exponential backoff with deterministic, seeded jitter."""

    def __init__(
        self,
        base: float,
        maximum: float,
        jitter: float = 0.0,
        rng: random.Random | None = None,
    ) -> None:
        self.base = base
        self.maximum = maximum
        self.jitter = jitter
        self._rng = rng if rng is not None else random.Random(0)

    def delay(self, attempt: int) -> float:
        """Delay before retry number ``attempt`` (0-based), in seconds."""
        raw = min(self.base * (2.0 ** attempt), self.maximum)
        if self.jitter:
            raw *= 1.0 + self.jitter * self._rng.random()
        return raw

    @classmethod
    def for_peers(cls, config: ResilienceConfig, rng: random.Random) -> "BackoffPolicy":
        return cls(config.backoff_base, config.backoff_max, config.backoff_jitter, rng)

    @classmethod
    def for_observer(cls, config: ResilienceConfig, rng: random.Random) -> "BackoffPolicy":
        return cls(
            config.backoff_base, config.observer_backoff_max, config.backoff_jitter, rng
        )


class ObserverOutbox:
    """Bounded FIFO of messages awaiting the observer link.

    ``push`` never blocks and never raises: when the box is full the
    *oldest* entry is evicted and returned so the caller can count the
    drop — fresher status beats stale status, and the engine must never
    stall on observability traffic.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"outbox capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._items: deque[Message] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def push(self, msg: Message) -> Message | None:
        """Append ``msg``; returns the evicted oldest entry on overflow."""
        dropped = None
        if len(self._items) >= self.capacity:
            dropped = self._items.popleft()
        self._items.append(msg)
        return dropped

    def snapshot(self) -> list[Message]:
        """All queued messages, oldest first, without removing them.

        The uplink's coalesced flush writes the whole snapshot, drains
        the stream once, and only then pops each entry — preserving the
        at-least-once contract: a failed flush leaves every message
        queued for the next connection.
        """
        return list(self._items)

    def pop_head(self, msg: Message) -> None:
        """Drop ``msg`` if it is still the head (sent successfully)."""
        if self._items and self._items[0] is msg:
            self._items.popleft()
