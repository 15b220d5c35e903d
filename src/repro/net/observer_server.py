"""The live observer: a TCP server wrapping the transport-agnostic core.

Every overlay node keeps one persistent connection to the observer (or
to a :mod:`repro.net.proxy` relaying to it); bootstrap requests, status
updates and traces flow up, control commands flow down the same socket.
Whatever route a node's frame took, it reaches :class:`Observer` as the
node wrote it.
The connection handling is :class:`~repro.net.observer_link.ObserverHub`'s;
this module adds the frame dispatch into :class:`Observer` and the
status-poll / lease-sweep loop.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any

from repro.core.ids import CONTROL_APP, NodeId
from repro.core.message import Message
from repro.core.msgtypes import MsgType
from repro.net.observer_link import ObserverHub
from repro.observer.observer import Observer
from repro.telemetry.tracing import EventType


class ObserverServer(ObserverHub):
    """Serves the observer protocol on a TCP endpoint."""

    def __init__(self, addr: NodeId, bootstrap_fanout: int = 8, seed: int = 0,
                 poll_interval: float | None = 1.0,
                 lease_timeout: float | None = None) -> None:
        super().__init__(addr)
        self.observer = Observer(
            transport=self, bootstrap_fanout=bootstrap_fanout, seed=seed,
            lease_timeout=lease_timeout,
        )
        self.poll_interval = poll_interval

    async def start(self) -> None:
        await self._bind()
        if self.poll_interval is not None:
            self._tasks.launch(self._poll_loop(), "poll")

    # ------------------------------------------------------- ObserverTransport

    def observer_send(self, node: NodeId, msg: Message) -> None:
        self._route_down(node, msg)

    def observer_now(self) -> float:
        return time.monotonic()

    # ------------------------------------------------------------ frame dispatch

    def _dispatch(self, child: NodeId, msg: Message) -> None:
        if msg.type == MsgType.FLOW_QUERY:
            # A causal-path query: answer down the asking connection.
            report = self.observer.flow_report(str(msg.fields().get("trace_id", "")))
            self._route_down(child, Message.with_fields(
                MsgType.FLOW_REPLY, self.addr, 0, **report
            ))
        else:
            self.observer.on_message(msg)

    def _child_gone(self, child: NodeId, gone: list[NodeId]) -> None:
        for node in gone:
            self.observer.mark_down(node)

    def trace_fault(self, node: NodeId, **detail: Any) -> None:
        text = " ".join(f"{key}={value}" for key, value in detail.items())
        self.observer.traces.record(
            self.observer_now(), node, CONTROL_APP, f"{EventType.CONTROL_FAULT} {text}"
        )

    async def _poll_loop(self) -> None:
        assert self.poll_interval is not None
        while self._running:
            await asyncio.sleep(self.poll_interval)
            self.observer.poll_all()
            # Lease sweep: a node silent past its lease (partitioned, or
            # dead without the TCP close ever reaching us) is torn down
            # here instead of lingering in the bootstrap view forever.
            for node in self.observer.expire_leases():
                writer = self._writers.pop(node, None)
                if writer is not None:
                    writer.close()
