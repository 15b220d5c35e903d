"""Statistics over one-second slices, and /proc accounting for processes.

The shared box stalls for tens of milliseconds a few times a minute and
changes speed by up to 2x over seconds, so every rate, latency and CPU
cost is computed per one-second slice of the window, restated at a
reference machine speed, and reported as the better quartile over
slices; both quartiles and the sample count travel with it.
"""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass
from time import monotonic, perf_counter

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def quartiles(values: list[float]) -> tuple[float, float]:
    """First and third quartile, as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        only = values[0] if values else 0.0
        return only, only
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted list (``q`` in [0, 1])."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


@dataclass
class Stat:
    """One figure with the spread and sample count it was drawn from."""

    value: float
    unit: str
    q1: float = 0.0
    q3: float = 0.0
    n: int = 1

    @classmethod
    def over(cls, values: list[float], unit: str, n: int | None = None) -> "Stat":
        """The median of ``values`` with their quartiles beside it."""
        if not values:
            return cls(0.0, unit, n=0)
        q1, q3 = quartiles(values)
        return cls(statistics.median(values), unit, q1, q3, len(values) if n is None else n)

    @classmethod
    def undisturbed(cls, values: list[float], unit: str, better: str, n: int | None = None) -> "Stat":
        """The better quartile of ``values`` (third of rates, first of costs).

        Interference from the shared host only ever slows a slice down,
        so the better quartile of a run's slices estimates the
        undisturbed figure and repeats between runs where the median
        does not (tcp_chain, ten runs: 15 % spread against 28 %).  A
        slower program still moves it: the whole distribution shifts.
        """
        stat = cls.over(values, unit, n)
        stat.value = stat.q3 if better == "higher" else stat.q1
        return stat

    def as_json(self) -> dict:
        return {"value": self.value, "unit": self.unit,
                "q1": self.q1, "q3": self.q3, "n": self.n}


def slice_values(
    slices: dict[int, list], first: int, last: int,
    slowdown: dict[int, float],
) -> dict[str, list[float]]:
    """Per-slice rate and latency percentiles over slices ``first..last``.

    ``slices`` maps an absolute monotonic second to ``[count,
    last_arrival, latencies_s]`` as the bench sinks record them.  A
    slice's rate is its count over the time between the previous slice's
    last arrival and its own, which covers exactly the inter-arrival
    gaps of the messages counted.  ``slowdown`` (see :class:`Calibrator`)
    restates each slice at the reference machine speed; the raw latency
    samples are returned untouched for the whole-window diagnostics.
    """
    out: dict[str, list[float]] = {
        "msgs_per_s": [], "latency_p50_ms": [], "latency_p95_ms": [], "latencies_s": []}
    for sec in range(first, last + 1):
        entry = slices.get(sec)
        prev = slices.get(sec - 1)
        span = entry[1] - prev[1] if entry and prev else 0.0
        if span <= 0:
            out["msgs_per_s"].append(0.0)  # a silent slice is a real observation
            continue
        slow = slowdown.get(sec, 1.0)
        out["msgs_per_s"].append(entry[0] / span * slow)
        lat = sorted(entry[2])
        if lat:
            to_ms = 1e3 / slow
            out["latency_p50_ms"].append(percentile(lat, 0.50) * to_ms)
            out["latency_p95_ms"].append(percentile(lat, 0.95) * to_ms)
            out["latencies_s"].extend(lat)
    return out


#: the calibration spin and the time it takes at the reference speed.
#: The constant is arbitrary (about this box's median); it only fixes
#: the unit in which normalised figures are stated.
REFERENCE_SPIN_S = 100e-6
_SPIN_BLOCK = bytes(5000)


def spin() -> float:
    """Seconds one fixed piece of work takes right now.

    Interpreter arithmetic plus 5 KB copies, the two things the engines
    do per message.  It allocates nothing the garbage collector tracks:
    a spin that builds containers triggers collections whose cost
    depends on the workload's heap, and then measures the workload
    instead of the machine.
    """
    start = perf_counter()
    total = 0
    for i in range(2500):
        total += i
    for i in range(80):
        copy = _SPIN_BLOCK + b"x"
    return perf_counter() - start


class Calibrator:
    """Interleaved machine-speed samples, so figures can be restated at one speed.

    The box's cores change speed by up to 2x over seconds (shared host,
    sibling hyper-thread), which moves every CPU-bound rate, latency and
    CPU cost alike and swamps a 10 % bound.  The runner therefore takes
    a ~0.2 ms spin sample every 20 ms inside the measuring process (1 %
    of one core) and states each one-second slice at the reference
    speed: ``slowdown`` is how much slower than the reference the
    machine ran during that slice.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> None:
        self.samples.append((monotonic(), spin()))

    def slowdown_between(self, start: float, end: float) -> float:
        spins = [dur for at, dur in self.samples if start <= at < end]
        return statistics.median(spins) / REFERENCE_SPIN_S if spins else 1.0

    def per_second(self, first: int, last: int) -> dict[int, float]:
        return {sec: self.slowdown_between(sec, sec + 1) for sec in range(first, last + 1)}


def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of ``pid`` so far, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as f:
        # the command name may hold spaces; fields resume after ")"
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_peak_rss_mib(pid: int | str = "self") -> float:
    """Peak resident set of ``pid`` in MiB (``VmHWM`` of ``/proc/<pid>/status``)."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0
