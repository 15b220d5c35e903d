"""``python3 -m bench.compare A.json B.json``: parent against change, row by row.

``A`` and ``B`` are files written by ``python3 -m bench --out`` (or
``bench.spread --out``) on the parent commit and on the change, with
identical benchmark code and settings.  Every workload x end-to-end
metric gets its own row - both medians, both quartile pairs, the bound
``BENCHMARK.json`` fixes - and one verdict:

- ``worse``: B's median is worse than A's by more than the bound;
- ``unresolved``: the run-to-run spread on either side is wider than the
  bound, so the row proves nothing - unless every run of B reads better
  than every run of A;
- ``better``: B's median is better than A's by more than the distance
  between A's own quartiles;
- ``within-bound``: anything else.

A gain may be *claimed* only under the pairing rule: at least ten pairs
of runs (the i-th of A with the i-th of B, made alternately), B winning
at least nine tenths of them with ties counting for neither side, the
medians apart by more than A's inter-quartile distance, and no more
failed operations than the parent.  The ``claim`` column says whether
the files meet it.  With one run per side the quartiles are those of the
run's one-second slices and nothing can be claimed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from bench.catalogue import END_TO_END
from bench.measure import quartiles

MIN_PAIRS = 10


def load(path: str) -> dict[str, list[dict]]:
    """Untraced runs of a results file, grouped by workload."""
    with open(path) as f:
        document = json.load(f)
    grouped: dict[str, list[dict]] = {}
    for run in document["runs"]:
        if not run["trace"]:
            grouped.setdefault(run["workload"], []).append(run)
    return grouped


def summary(runs: list[dict], metric: str) -> tuple[float, float, float, list[float]]:
    """Median and quartiles over runs (over slices when there is one run)."""
    values = [run["metrics"][metric]["value"] for run in runs]
    if len(values) == 1:
        only = runs[0]["metrics"][metric]
        q1, q3 = (only["q1"], only["q3"]) if only["n"] > 1 else (only["value"],) * 2
        return values[0], q1, q3, values
    return statistics.median(values), *quartiles(values), values


def verdict(a: tuple, b: tuple, better: str, bound: float) -> tuple[str, float, str]:
    """``(verdict, share by which B is worse, claim)`` for one row."""
    med_a, q1_a, q3_a, runs_a = a
    med_b, q1_b, q3_b, runs_b = b
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (med_b - med_a) / med_a if med_a else 0.0
    spread = max((q3_a - q1_a) / med_a if med_a else 0.0, (q3_b - q1_b) / med_b if med_b else 0.0)
    all_better = max(sign * v for v in runs_b) < min(sign * v for v in runs_a)
    gap_clear = abs(med_b - med_a) > (q3_a - q1_a)

    pairs = list(zip(runs_a, runs_b))
    wins = sum(1 for x, y in pairs if sign * y < sign * x)
    ties = sum(1 for x, y in pairs if x == y)
    claim = f"{wins}/{len(pairs) - ties} pairs"
    claimable = (len(pairs) >= MIN_PAIRS and wins >= 0.9 * (len(pairs) - ties)
                 and gap_clear and worse_by < 0)

    if spread > bound and not all_better:
        return "unresolved", worse_by, claim
    if worse_by > bound:
        return "worse", worse_by, claim
    if worse_by < 0 and gap_clear:
        return "better", worse_by, claim + (", claimable" if claimable else ", not claimable")
    return "within-bound", worse_by, claim


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench.compare", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    parent, change = load(args.parent), load(args.change)

    regressed = False
    for workload in parent:
        if workload not in change:
            print(f"\n{workload}: missing from {args.change}")
            continue
        runs_a, runs_b = parent[workload], change[workload]
        failed_a = sum(r["failed"] for r in runs_a) / sum(r["attempted"] for r in runs_a)
        failed_b = sum(r["failed"] for r in runs_b) / sum(r["attempted"] for r in runs_b)
        print(f"\n{workload}: {len(runs_a)} parent runs, {len(runs_b)} change runs; "
              f"ops_failed_ratio {failed_a:.6f} -> {failed_b:.6f}"
              + ("  MORE FAILURES: no gain counts" if failed_b > failed_a else ""))
        regressed |= failed_b > failed_a
        print(f"  {'metric':20s} {'parent median [q1..q3]':>34s} {'change median [q1..q3]':>34s} "
              f"{'gain':>8s} {'bound':>6s}  verdict")
        for metric, unit, better, bound, _ in END_TO_END:
            a, b = summary(runs_a, metric), summary(runs_b, metric)
            word, worse_by, claim = verdict(a, b, better, bound)
            regressed |= word == "worse"
            cell_a = f"{a[0]:.4g} [{a[1]:.4g}..{a[2]:.4g}]"
            cell_b = f"{b[0]:.4g} [{b[1]:.4g}..{b[2]:.4g}]"
            print(f"  {metric:20s} {cell_a:>34s} {cell_b:>34s} {-worse_by:+8.1%} {bound:6.0%}  "
                  f"{word} ({claim}; {unit}, {better} is better)")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
