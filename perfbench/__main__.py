"""Run one workload in this process: ``python -m perfbench --workload W ...``.

``perfbench/run.py`` starts this in a fresh interpreter per workload;
the last line printed is the run's JSON result.
"""

from __future__ import annotations

import argparse
import json
import os

from .catalogue import WORKLOADS
from .harness import run_workload

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def main() -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    span_path = None
    if args.trace:
        span_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    report = run_workload(
        args.workload, args.seed, args.seconds, trace=bool(args.trace), span_path=span_path
    )
    for line in report.lines:
        print(line)
    print(json.dumps(report.result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
