"""Graceful-shutdown plumbing for long-running CLI daemons.

``ioverlay observe``, ``ioverlay virtualhost``, ``ioverlay cluster`` and
the cluster worker all park an asyncio loop forever; a SIGTERM from a
supervisor (or Ctrl-C) must run the engines' deliberate ``disconnect``/
``stop`` path instead of dying mid-frame, so peers read a clean EOF and
the observer is not left with phantom leases.
"""

from __future__ import annotations

import asyncio
import signal

#: signals that request a graceful daemon shutdown
SHUTDOWN_SIGNALS = (signal.SIGTERM, signal.SIGINT)


def install_shutdown_handlers(
    stop: asyncio.Event, signals: tuple[signal.Signals, ...] = SHUTDOWN_SIGNALS
) -> None:
    """Arm ``stop`` on each signal; must run inside the event loop.

    Falls back to plain :func:`signal.signal` handlers where the loop
    cannot own signals (non-main thread, platforms without
    ``add_signal_handler``); if even that is unavailable the daemon
    simply keeps the default die-on-signal behaviour.
    """
    loop = asyncio.get_running_loop()
    for sig in signals:
        try:
            loop.add_signal_handler(sig, stop.set)
        except (NotImplementedError, RuntimeError):
            try:
                signal.signal(sig, lambda *_: loop.call_soon_threadsafe(stop.set))
            except (ValueError, OSError):
                pass
