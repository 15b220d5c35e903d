"""Drift guard: the metric and trace-event catalogue is written down.

Every ``ioverlay_*`` metric registered anywhere under ``src/`` (a
``counter`` / ``gauge`` / ``histogram`` call whose name is a literal)
and every :class:`~repro.telemetry.tracing.EventType` value must appear
in some file under ``docs/`` — a new series or event lands together
with its line in docs/observability.md, or this test names it.
"""

import ast
from pathlib import Path

import repro
from repro.telemetry.tracing import EventType

SRC = Path(repro.__file__).parent
DOCS = Path(__file__).resolve().parents[1] / "docs"

REGISTRARS = {"counter", "gauge", "histogram"}


def registered_metrics() -> set[str]:
    names = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in REGISTRARS and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and str(node.args[0].value).startswith("ioverlay_")):
                names.add(node.args[0].value)
    return names


def event_types() -> set[str]:
    return {value for name, value in vars(EventType).items()
            if name.isupper() and isinstance(value, str)}


def documented() -> str:
    return "\n".join(path.read_text() for path in sorted(DOCS.rglob("*.md")))


def test_the_scan_finds_the_known_families():
    metrics = registered_metrics()
    for family in ("ioverlay_engine_", "ioverlay_cluster_", "ioverlay_routing_",
                   "ioverlay_membership_", "ioverlay_stabilize_"):
        assert any(name.startswith(family) for name in metrics), family
    assert {"forward", "control-fault", "member-dead"} <= event_types()


def test_every_registered_metric_is_documented():
    docs = documented()
    assert sorted(name for name in registered_metrics() if f"`{name}`" not in docs) == []


def test_every_trace_event_is_documented():
    docs = documented()
    assert sorted(event for event in event_types() if f"`{event}`" not in docs) == []
