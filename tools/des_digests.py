#!/usr/bin/env python3
"""Print a digest of every discrete-event experiment's stdout.

The sixteen DES experiments run one after another, each in its own
subprocess under ``PYTHONHASHSEED=0`` with this checkout's ``src`` on
the path, and each prints one line::

    name sha256-of-stdout seconds

so "the simulator's output did not change" is one ``diff`` of the
digest columns of two checkouts:

    python3 tools/des_digests.py > after.txt
    python3 /path/to/base/checkout/tools/des_digests.py > before.txt
    diff <(cut -d' ' -f1,2 before.txt) <(cut -d' ' -f1,2 after.txt)

(The tool uses only the standard library, so a copy of it runs
against any checkout.)  Names on the command line select a subset;
``--out DIR`` also keeps each stdout as ``DIR/<name>.txt`` for a
line-level diff.  A run that exits non-zero prints ``FAILED`` in the
digest column and makes the tool exit 1.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

#: the experiments that run on the discrete-event simulator (the
#: others use real sockets, processes or wall-clock time)
EXPERIMENTS = (
    "fig6", "fig7", "fig8", "fig9", "table3",
    "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
    "robustness", "underlay",
)

ROOT = Path(__file__).resolve().parent.parent


def run(name: str, out: Path | None) -> tuple[str, float]:
    """Run one experiment; its stdout's sha256 (or FAILED) and wall seconds."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "repro.tools.cli", "experiment", name],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    seconds = time.perf_counter() - start
    if out is not None:
        (out / f"{name}.txt").write_bytes(proc.stdout)
    if proc.returncode:
        return "FAILED", seconds
    return hashlib.sha256(proc.stdout).hexdigest(), seconds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help=f"experiments to run (default: all {len(EXPERIMENTS)})")
    parser.add_argument("--out", type=Path, help="also keep each stdout in this directory")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.names) - set(EXPERIMENTS))
    if unknown:
        parser.error(f"not a DES experiment: {', '.join(unknown)}")
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    failed = False
    for name in args.names or EXPERIMENTS:
        digest, seconds = run(name, args.out)
        failed |= digest == "FAILED"
        print(f"{name} {digest} {seconds:.1f}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
