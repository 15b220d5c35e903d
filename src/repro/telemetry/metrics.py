"""A label-aware metrics registry: Counter, Gauge, Histogram.

Design constraints (the reasons this does not just vendor a Prometheus
client):

- **O(1) hot path** — instrumented code binds a labelled child once
  (``counter.labels(node=..., peer=...)``) and the per-record call is a
  single attribute increment, no dict lookups, no string formatting;
- **no wall-clock calls** — metrics never read the time themselves, so
  recording is deterministic under the virtual-time simulator; any
  timestamps come from the caller's clock (``kernel.now`` or
  ``time.monotonic``);
- **snapshot interchange** — :meth:`MetricsRegistry.snapshot` produces a
  plain-dict form that travels inside ``STATUS`` messages, merges across
  nodes (:func:`merge_snapshots`), and renders to Prometheus text
  (:mod:`repro.telemetry.exporters`).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Iterator, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "merge_snapshots",
    "snapshot_delta",
    "snapshot_regressed",
    "quantile_from_counts",
]

#: Default histogram bucket upper bounds, in seconds — tuned for queueing
#: delays in the simulator (sub-millisecond switching up to multi-second
#: back-pressure stalls).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class CounterChild:
    """One labelled time series of a counter; monotonically increasing."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        self.value += amount


class GaugeChild:
    """One labelled time series of a gauge; goes up and down."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class HistogramChild:
    """One labelled series of a fixed-bucket histogram."""

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # last slot is +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> list[int]:
        """Cumulative per-bucket counts, Prometheus ``le`` semantics."""
        out, running = [], 0
        for n in self.counts:
            running += n
            out.append(running)
        return out

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile by linear interpolation.

        Same estimator as PromQL's ``histogram_quantile``: find the
        bucket whose cumulative count first reaches ``q * count`` and
        interpolate linearly inside its ``(lower, upper]`` bound range.
        Observations in the ``+Inf`` bucket clamp to the largest finite
        bound.  Returns ``nan`` on an empty histogram.
        """
        return quantile_from_counts(self.bounds, self.counts, q)


class _Metric:
    """Shared machinery: child registry keyed by label values."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> None:
        _validate_name(name)
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._children: dict[tuple[str, ...], Any] = {}

    def _new_child(self) -> Any:  # pragma: no cover - overridden
        raise NotImplementedError

    def labels(self, **labelvalues: Any) -> Any:
        """Bind (and cache) the child for one label-value combination."""
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, got {tuple(labelvalues)}"
            )
        key = tuple(str(labelvalues[n]) for n in self.labelnames)
        child = self._children.get(key)
        if child is None:
            child = self._new_child()
            self._children[key] = child
        return child

    def series(self) -> Iterator[tuple[dict[str, str], Any]]:
        """Every (labels dict, child) pair recorded so far."""
        for key, child in self._children.items():
            yield dict(zip(self.labelnames, key)), child

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, series={len(self._children)})"


class Counter(_Metric):
    """A monotonically increasing, label-aware counter."""

    kind = "counter"

    def _new_child(self) -> CounterChild:
        return CounterChild()

    def inc(self, amount: float = 1.0, **labelvalues: Any) -> None:
        """Convenience single-call form (binds the child each time)."""
        self.labels(**labelvalues).inc(amount)


class Gauge(_Metric):
    """A label-aware instantaneous value."""

    kind = "gauge"

    def _new_child(self) -> GaugeChild:
        return GaugeChild()

    def set(self, value: float, **labelvalues: Any) -> None:
        self.labels(**labelvalues).set(value)


class Histogram(_Metric):
    """A label-aware fixed-bucket histogram (no wall-clock, no locks)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if len(set(bounds)) != len(bounds):
            raise ValueError(f"duplicate bucket bounds: {bounds}")
        super().__init__(name, help, labelnames)
        self.buckets = bounds

    def _new_child(self) -> HistogramChild:
        return HistogramChild(self.buckets)

    def observe(self, value: float, **labelvalues: Any) -> None:
        self.labels(**labelvalues).observe(value)


class MetricsRegistry:
    """All metrics of one node (or one shared simulation).

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: calling
    twice with the same name returns the same metric, so independent
    components may bind instruments without coordinating.  Re-declaring
    a name with a different kind or label set is a hard error — silent
    divergence would corrupt every exporter downstream.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        existing = self._metrics.get(name)
        if existing is None:
            metric = Histogram(name, help, labelnames, buckets)
            self._metrics[name] = metric
            return metric
        self._check_compatible(existing, Histogram, name, labelnames)
        assert isinstance(existing, Histogram)
        if existing.buckets != tuple(sorted(float(b) for b in buckets)):
            raise ValueError(f"metric {name!r} re-declared with different buckets")
        return existing

    def _get_or_create(self, cls: type, name: str, help: str, labelnames: Sequence[str]):
        existing = self._metrics.get(name)
        if existing is None:
            metric = cls(name, help, labelnames)
            self._metrics[name] = metric
            return metric
        self._check_compatible(existing, cls, name, labelnames)
        return existing

    @staticmethod
    def _check_compatible(existing: _Metric, cls: type, name: str, labelnames: Sequence[str]) -> None:
        if type(existing) is not cls:
            raise ValueError(
                f"metric {name!r} already registered as {existing.kind}, "
                f"cannot re-declare as {cls.kind}"
            )
        if existing.labelnames != tuple(labelnames):
            raise ValueError(
                f"metric {name!r} re-declared with labels {tuple(labelnames)}, "
                f"registered with {existing.labelnames}"
            )

    # --- introspection ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def get(self, name: str) -> _Metric | None:
        return self._metrics.get(name)

    def metrics(self) -> list[_Metric]:
        return [self._metrics[name] for name in sorted(self._metrics)]

    # --- snapshots -------------------------------------------------------------

    def snapshot(self, **label_filter: Any) -> dict[str, Any]:
        """A plain-dict, JSON-serializable view of every series.

        ``label_filter`` keeps only series whose labels carry exactly the
        given values (e.g. ``snapshot(node="10.0.0.1:7000")`` extracts
        one node's slice of a shared registry); metrics left with no
        matching series are omitted.
        """
        wanted = {k: str(v) for k, v in label_filter.items()}
        out: dict[str, Any] = {}
        for metric in self.metrics():
            series_out = []
            for labels, child in metric.series():
                if any(labels.get(k) != v for k, v in wanted.items()):
                    continue
                entry: dict[str, Any] = {"labels": labels}
                if metric.kind == "histogram":
                    entry["buckets"] = list(child.bounds)
                    entry["counts"] = list(child.counts)
                    entry["sum"] = child.sum
                    entry["count"] = child.count
                else:
                    entry["value"] = child.value
                series_out.append(entry)
            if series_out:
                out[metric.name] = {
                    "kind": metric.kind,
                    "help": metric.help,
                    "labelnames": list(metric.labelnames),
                    "series": series_out,
                }
        return out


def merge_snapshots(snapshots: Sequence[dict[str, Any]]) -> dict[str, Any]:
    """Combine per-node snapshots into one cluster-wide snapshot.

    Series are keyed by (metric name, label values).  Counters and
    histograms from colliding series are summed; for gauges the last
    snapshot wins (per-node gauges normally never collide because their
    labels include the node).  Metric kind mismatches are a hard error.
    """
    merged: dict[str, Any] = {}
    for snap in snapshots:
        for name, metric in snap.items():
            target = merged.get(name)
            if target is None:
                merged[name] = {
                    "kind": metric["kind"],
                    "help": metric.get("help", ""),
                    "labelnames": list(metric.get("labelnames", [])),
                    "series": [
                        {k: (list(v) if isinstance(v, list) else dict(v) if isinstance(v, dict) else v)
                         for k, v in entry.items()}
                        for entry in metric["series"]
                    ],
                }
                continue
            if target["kind"] != metric["kind"]:
                raise ValueError(
                    f"metric {name!r}: kind mismatch across snapshots "
                    f"({target['kind']} vs {metric['kind']})"
                )
            index = {_series_key(entry): entry for entry in target["series"]}
            for entry in metric["series"]:
                existing = index.get(_series_key(entry))
                if existing is None:
                    copied = {k: (list(v) if isinstance(v, list) else dict(v) if isinstance(v, dict) else v)
                              for k, v in entry.items()}
                    target["series"].append(copied)
                    index[_series_key(copied)] = copied
                elif metric["kind"] == "counter":
                    existing["value"] += entry["value"]
                elif metric["kind"] == "histogram":
                    if existing["buckets"] != entry["buckets"]:
                        raise ValueError(f"metric {name!r}: bucket mismatch across snapshots")
                    existing["counts"] = [a + b for a, b in zip(existing["counts"], entry["counts"])]
                    existing["sum"] += entry["sum"]
                    existing["count"] += entry["count"]
                else:  # gauge: last writer wins
                    existing["value"] = entry["value"]
    return merged


def snapshot_delta(prev: dict[str, Any], curr: dict[str, Any]) -> dict[str, Any]:
    """What changed between two snapshots of the *same* source.

    Returns a snapshot-form dict that, merged onto ``prev`` with
    :func:`merge_snapshots`, reproduces ``curr``: counter series carry
    ``curr - prev`` (dropped when zero), histogram series carry
    bucket-wise count differences, gauges carry their current value only
    when it changed.  This is the delta encoding the observer-proxy
    aggregation tree forwards upward on every flush, so the root pays
    for activity, not fleet size.

    A series whose counter/histogram values *decreased* (the reporting
    node restarted and its counters reset) is re-emitted in full, the
    standard Prometheus counter-reset convention — the accumulated view
    upstream stays monotone and the restarted node's fresh activity is
    not silently discarded.
    """
    delta: dict[str, Any] = {}
    for name, metric in curr.items():
        prev_metric = prev.get(name)
        prev_index = (
            {_series_key(entry): entry for entry in prev_metric["series"]}
            if prev_metric is not None else {}
        )
        series_out = []
        for entry in metric["series"]:
            before = prev_index.get(_series_key(entry))
            kind = metric["kind"]
            if kind == "counter":
                base = before["value"] if before is not None else 0.0
                diff = entry["value"] - base
                if diff < 0:  # counter reset: re-emit in full
                    diff = entry["value"]
                if diff:
                    series_out.append({"labels": dict(entry["labels"]), "value": diff})
            elif kind == "histogram":
                if before is not None and before["buckets"] == entry["buckets"]:
                    counts = [a - b for a, b in zip(entry["counts"], before["counts"])]
                    total = entry["count"] - before["count"]
                    total_sum = entry["sum"] - before["sum"]
                    if total < 0 or any(c < 0 for c in counts):  # reset
                        counts = list(entry["counts"])
                        total, total_sum = entry["count"], entry["sum"]
                else:
                    counts = list(entry["counts"])
                    total, total_sum = entry["count"], entry["sum"]
                if total:
                    series_out.append({
                        "labels": dict(entry["labels"]),
                        "buckets": list(entry["buckets"]),
                        "counts": counts, "sum": total_sum, "count": total,
                    })
            else:  # gauge: forward only when the value moved
                if before is None or before["value"] != entry["value"]:
                    series_out.append({"labels": dict(entry["labels"]), "value": entry["value"]})
        if series_out:
            delta[name] = {
                "kind": metric["kind"],
                "help": metric.get("help", ""),
                "labelnames": list(metric.get("labelnames", [])),
                "series": series_out,
            }
    return delta


def snapshot_regressed(prev: dict[str, Any], curr: dict[str, Any]) -> bool:
    """True when ``curr`` is not a pure accumulation of ``prev``.

    A regression — a whole metric or series vanishing, a counter or
    histogram going backwards, or bucket bounds changing — means the
    measured population itself changed (a child died or restarted), so a
    *delta* against ``prev`` can no longer represent the truth: vanished
    series would silently persist upstream and reset counters would
    double-count.  The aggregation tree answers a regression with a
    full-resync flush (``full=True``), replacing upstream state outright.
    """
    for name, metric in prev.items():
        curr_metric = curr.get(name)
        if curr_metric is None:
            return True
        index = {_series_key(e): e for e in curr_metric.get("series", [])}
        kind = metric.get("kind")
        for entry in metric.get("series", []):
            now = index.get(_series_key(entry))
            if now is None:
                return True
            if kind == "counter" and now["value"] < entry["value"]:
                return True
            if kind == "histogram" and (
                now["count"] < entry["count"] or now["buckets"] != entry["buckets"]
            ):
                return True
    return False


def fold_snapshot(held: dict[str, Any] | None, delta: Any, full: bool) -> dict[str, Any]:
    """``held`` advanced by one aggregation flush's metric ``delta``.

    A ``full`` flush — the first of an upstream epoch — replaces what is
    held (merging it would double-count the whole subtree after a
    redial); a delta merges onto it.  Either way the result is rebuilt
    by :func:`merge_snapshots`, so a snapshot of the wrong shape raises
    here instead of being held and failing every later merge.
    """
    return merge_snapshots([delta] if full or held is None else [held, delta])


def quantile_from_counts(
    bounds: Sequence[float], counts: Sequence[int], q: float
) -> float:
    """Linear-interpolation quantile over per-bucket (non-cumulative) counts.

    ``counts`` has one more slot than ``bounds`` (the trailing ``+Inf``
    bucket), exactly the interchange form of snapshot histogram series —
    dashboards and CLI tools estimate percentiles from scraped
    snapshots without a live :class:`HistogramChild`.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    total = sum(counts)
    if total == 0:
        return float("nan")
    rank = q * total
    running = 0.0
    for i, n in enumerate(counts):
        if n == 0:
            continue
        if running + n >= rank:
            if i >= len(bounds):  # +Inf bucket: clamp to last finite bound
                return float(bounds[-1])
            lower = bounds[i - 1] if i > 0 else 0.0
            upper = bounds[i]
            return lower + (upper - lower) * max(0.0, rank - running) / n
        running += n
    return float(bounds[-1])


def _series_key(entry: dict[str, Any]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted(entry["labels"].items()))


def _validate_name(name: str) -> None:
    if not name or not all(c.isalnum() or c in "_:" for c in name) or name[0].isdigit():
        raise ValueError(f"invalid metric name {name!r}")
