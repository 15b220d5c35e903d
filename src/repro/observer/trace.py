"""Centralized trace collection.

The observer records the content of any message of type ``trace`` in its
log files, serving as "a centralized facility to collect and record
debugging information, performance data and other traces" (Section 2.2).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.core.ids import NodeId


@dataclass(frozen=True)
class TraceRecord:
    """One trace line: when, who, which application, what.

    ``trace_id`` is the wire-propagated message id (``sender/app#seq``)
    when the traced text concerns one data message; empty otherwise.
    The id is a pure function of the immutable message header, so the
    same logical message yields the *same* id whether it was observed
    under the virtual-time simulator or re-decoded from real sockets —
    that identity is what lets dump comparisons (and the determinism
    guard) cover traces that cross worker boundaries.
    """

    time: float
    node: NodeId
    app: int
    text: str
    trace_id: str = ""


class TraceLog:
    """An append-only, filterable log of trace records."""

    def __init__(self) -> None:
        self._records: list[TraceRecord] = []
        #: per-path count of records already written by dump_jsonl
        self._dumped: dict[str, int] = {}

    def record(self, time: float, node: NodeId, app: int, text: str,
               trace_id: str = "") -> None:
        self._records.append(TraceRecord(time, node, app, text, trace_id))

    def for_trace(self, trace_id: str) -> list[TraceRecord]:
        """Records about one message, in arrival order."""
        return [r for r in self._records if r.trace_id == trace_id]

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def matching(self, substring: str) -> list[TraceRecord]:
        return [record for record in self._records if substring in record.text]

    def dump(self, path: str | Path) -> None:
        """Write the log as tab-separated lines (time, node, app, text).

        The write is atomic (temp file + rename): a crash mid-dump or a
        concurrent reader never observes a truncated log.
        """
        lines = (
            f"{record.time:.6f}\t{record.node}\t{record.app}\t{record.text}"
            for record in self._records
        )
        text = "\n".join(lines) + ("\n" if self._records else "")
        target = Path(path)
        tmp = target.with_name(target.name + ".tmp")
        tmp.write_text(text)
        os.replace(tmp, target)

    def dump_jsonl(self, path: str | Path, append: bool = True) -> int:
        """Write the log as JSON lines; returns records written.

        With ``append=True`` (the default) only records added since the
        last ``dump_jsonl`` to the same path are appended, so a periodic
        dump loop costs O(new records), not O(log).  With ``append=False``
        the whole log is rewritten atomically.
        """
        key = str(Path(path))
        start = self._dumped.get(key, 0) if append else 0
        fresh = self._records[start:]
        lines = "".join(
            json.dumps(
                {"time": r.time, "node": str(r.node), "app": r.app,
                 "text": r.text, "trace_id": r.trace_id},
                sort_keys=True,
            ) + "\n"
            for r in fresh
        )
        if append:
            with open(key, "a", encoding="utf-8") as handle:
                handle.write(lines)
        else:
            tmp = key + ".tmp"
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(lines)
            os.replace(tmp, key)
        self._dumped[key] = len(self._records)
        return len(fresh)

    def clear(self) -> None:
        self._records.clear()
        self._dumped.clear()
