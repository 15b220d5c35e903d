"""The control channel: one frame family for every supervision tier.

A supervisor and each of its children speak iOverlay frames
(:mod:`repro.net.framing`) on one ordinary TCP connection.  A worker
under its placement controller and a child controller under the
federation root are the same tier instantiated twice, so both use the
same ``W_*`` verbs of :mod:`repro.core.msgtypes`:

========================  =============================================
verb                      direction and meaning
========================  =============================================
``W_REGISTER``            child -> supervisor, first frame: ``name``,
                          ``pid``; a worker adds ``proxy``, a child
                          controller ``workers``/``capacity``/``weight``
``W_SPAWN``               supervisor -> child: place one node (``name``,
                          ``algorithm``, ``kwargs``, ``weight``, ``pin``)
``W_SPAWNED``             child -> supervisor: spawn outcome (``node``;
                          a child controller adds ``worker``)
``W_HEARTBEAT``           child -> supervisor: liveness + gauges
``W_STOP_NODE``           supervisor -> child: stop one node
``W_NODE_INFO``           supervisor -> child: inspect one node
``W_NODE_INFO_REPLY``     child -> supervisor: reply / generic ack
``W_SHUTDOWN``            supervisor -> child: drain and exit
``C_WELCOME``             root -> child controller, answering its
                          ``W_REGISTER``: root observer endpoint, pinned
                          proxy port on respawn
``C_EVENT``               child controller -> root: ``ready`` /
                          ``node-down`` / ``node-replaced``
========================  =============================================

Requests that expect an answer carry a supervisor-chosen token in the
header ``seq`` field; the child echoes it on the reply, so one channel
multiplexes any number of outstanding requests.  A request that fails —
including one whose payload does not decode — is answered with an
``error`` field on the same ``seq``; a frame that does not decode at
all leaves the stream unaligned and closes the channel.  Reusing the
message codec means the control plane gets framing, JSON field payloads
and codec validation for free — no second wire format.
"""

from __future__ import annotations

import asyncio
from typing import Any

from repro.core.ids import CONTROL_APP, NodeId
from repro.core.message import Message
from repro.core.msgtypes import MsgType
from repro.net.framing import read_message, write_message

#: identity stamped on control-channel frames; the channel is not an
#: overlay link, so a reserved sentinel keeps it out of any node table
#: (the observer's own sentinel is 0.0.0.0:1).
CONTROL_SENDER = NodeId("0.0.0.0", 2)

#: child -> supervisor frames correlated to a request by ``seq``
REPLIES = frozenset({MsgType.W_SPAWNED, MsgType.W_NODE_INFO_REPLY})


def control_frame(type_: int, seq: int = 0, **fields: Any) -> Message:
    """One control-plane frame with a JSON field payload."""
    return Message.with_fields(type_, CONTROL_SENDER, CONTROL_APP, seq=seq, **fields)


class ControlChannel:
    """Frame-level send/recv on one supervisor<->child stream."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer

    async def recv(self) -> Message:
        """Next frame; EOF and socket errors propagate to the caller."""
        return await read_message(self._reader)

    async def send(self, type_: int, seq: int = 0, **fields: Any) -> None:
        write_message(self._writer, control_frame(type_, seq=seq, **fields))
        await self._writer.drain()

    def close(self) -> None:
        self._writer.close()

    def is_closing(self) -> bool:
        return self._writer.is_closing()
