"""``python3 -m bench.spread``: is the benchmark steady enough to gate on?

Runs every workload ``--runs`` times as the driver does, each time with
another seed, and prints for every end-to-end metric the distance
between the first and third quartile of its values as a share of their
median - the figure the driver compares with the metric's bound.  A
gate is trustworthy when this spread stays below a third of the bound.
The spread of the figures as the wall clock saw them is printed beside
it, to show what stating them at the reference machine speed buys.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from bench.__main__ import prepare, run_child
from bench.catalogue import END_TO_END, RUN_SECONDS, WORKLOAD_NAMES
from bench.measure import quartiles


def spread_of(values: list[float]) -> tuple[float, float, float, float]:
    median = statistics.median(values)
    q1, q3 = quartiles(values)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench.spread", description=__doc__)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=100, help="first seed")
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--only", help="comma-separated workloads")
    parser.add_argument("--out", help="write every run's metrics to this JSON file")
    args = parser.parse_args(argv)

    prepare()
    names = args.only.split(",") if args.only else WORKLOAD_NAMES
    bounds = {name: bound for name, _, _, bound, _ in END_TO_END}
    record: dict[str, list[dict]] = {}
    worst = 0.0
    for name in names:
        runs = record[name] = []
        for i in range(args.runs):
            started = time.monotonic()
            line = run_child(name, args.seed + i, args.seconds, traced=False)
            line["wall_s"] = time.monotonic() - started
            runs.append(line)
            if not line["correct"] or line["failed"]:
                print(f"{name} seed {args.seed + i}: correct={line['correct']} failed={line['failed']}")
        walls = [run["wall_s"] for run in runs]
        print(f"\n{name}: {len(runs)} runs, {statistics.median(walls):.1f} s each (max {max(walls):.1f})")
        for metric, bound in bounds.items():
            median, q1, q3, spread = spread_of([run["metrics"][metric]["value"] for run in runs])
            *_, wall = spread_of([run["as_measured"][metric]["value"] for run in runs])
            if metric != "setup_s":
                worst = max(worst, spread / bound)
            flag = "" if spread <= bound / 3 else ("  > bound/3" if spread <= bound else "  > BOUND")
            print(f"  {metric:20s} median {median:11.4f}  q1 {q1:11.4f}  q3 {q3:11.4f}  "
                  f"spread {spread:7.2%} (as measured {wall:7.2%}) of bound {bound:.0%}{flag}")
    if args.out:
        # the same shape ``python3 -m bench --out`` writes, so that
        # ``bench.compare`` reads either
        with open(args.out, "w") as f:
            json.dump({"runs": [run for runs in record.values() for run in runs]}, f, indent=1)
    print(f"\nworst spread/bound outside setup_s: {worst:.2f} (steady when below 0.33)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
