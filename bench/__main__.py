"""``python3 -m bench``: the benchmark's one command.

Driver form, one workload per call, one JSON object on the last line::

    python3 -m bench --workload tcp_chain --seed 3 --seconds 12 --trace 0

Suite form, every workload (or ``--only a,b``), a table per workload and
optionally a results file for ``python3 -m bench.compare``::

    python3 -m bench --seed 3 [--trace] [--repeat 3] [--out bench/results/x.json]

Each run happens in a fresh subprocess (``bench.child``) after the
sources have been byte-compiled, so no run pays another's imports or
inherits its heap.  The subprocess gets its own session; whatever it
leaves behind (cluster workers of a run that died) is killed with it.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

from bench.catalogue import END_TO_END, RUN_SECONDS, WORKLOAD_NAMES

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: a run must end well inside the driver's 180-second limit
CHILD_TIMEOUT = 170


def child_env() -> dict[str, str]:
    env = os.environ.copy()
    paths = [str(SRC), str(ROOT)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(paths))
    # set and dict order must not depend on the process: the slotted
    # membership simulator's convergence round does (counted, not fixed)
    env["PYTHONHASHSEED"] = "0"
    return env


def prepare() -> bool:
    """Byte-compile the sources so no run pays for it; False outside a checkout."""
    if not (SRC / "repro").is_dir():
        return False
    compileall.compile_dir(str(SRC), quiet=2)
    compileall.compile_dir(str(ROOT / "bench"), quiet=2)
    return True


def run_child(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    """Run one workload in a fresh process; returns the child's report."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "bench.child", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(traced))],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        out = ""
    finally:
        # the child leads its own process group: reap stragglers with it
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench: {workload} run failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def driver_line(report: dict) -> str:
    """The one JSON object the driver reads: exactly four keys."""
    return json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in report["metrics"].items()},
    })


def print_table(report: dict) -> None:
    kind = "per-layer, traced" if report["trace"] else "end to end, untraced"
    print(f"\n== {report['workload']}  seed {report['seed']}  {report['seconds']} s  ({kind}; "
          "traffic crosses host loopback or shared memory, never a real link)")
    bounds = {name: bound for name, _, _, bound, _ in END_TO_END}
    for name, m in report["metrics"].items():
        spread = f"IQR {m['q1']:.4g}..{m['q3']:.4g} n={m['n']}" if m["n"] > 1 else ""
        gate = f"bound {bounds[name]:.0%}" if name in bounds else ""
        print(f"  {name:42s} {m['value']:14.4f} {m['unit']:6s} {spread:36s} {gate}")
    ratio = report["failed"] / report["attempted"]
    print(f"  ops_attempted {report['attempted']}  ops_failed {report['failed']}  "
          f"ops_failed_ratio {ratio:.6f}  correct {report['correct']}")
    for reason in report["reasons"]:
        print(f"  FAILED: {reason}")
    for check, ok in report["checks"].items():
        print(f"  check {check}: {'ok' if ok else 'VIOLATED'}")
    ledger = report.get("ledger")
    if ledger:
        print(f"  ledger (us per msg-hop): whole {ledger['cpu_us_per_msg_hop']:.2f} = "
              f"attributed {ledger['attributed_us_per_msg_hop']:.2f} + "
              f"unattributed {ledger['unattributed_us_per_msg_hop']:.2f} "
              f"({ledger['unattributed_share']:.0%})")
        for part, value in ledger["parts_us_per_msg_hop"].items():
            print(f"    {part:40s} {value:10.3f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run this one workload and print the driver's JSON line")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        help="1: the separate traced run that yields the per-layer metrics")
    parser.add_argument("--only", help="suite form: comma-separated workloads")
    parser.add_argument("--repeat", type=int, default=1,
                        help="suite form: sets to run, seeds seed..seed+repeat-1")
    parser.add_argument("--out", help="suite form: write every report to this JSON file")
    args = parser.parse_args(argv)

    if not prepare():
        print("bench: src/repro is not here; run from a checkout of the repository", file=sys.stderr)
        return 2

    if args.workload:
        report = run_child(args.workload, args.seed, args.seconds, bool(args.trace))
        for reason in report["reasons"]:
            print(f"bench: {reason}", file=sys.stderr)
        print(driver_line(report))
        return 0

    names = args.only.split(",") if args.only else WORKLOAD_NAMES
    reports = []
    for offset in range(args.repeat):
        for name in names:
            # one traced run per workload is enough: it carries no gate
            for traced in ([False, True] if args.trace and offset == 0 else [False]):
                report = run_child(name, args.seed + offset, args.seconds, traced)
                print_table(report)
                reports.append(report)
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": reports}, indent=1) + "\n")
    return 0 if all(r["correct"] and not r["failed"] for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
