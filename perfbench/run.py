"""Run the benchmark, each workload in a fresh interpreter.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the program is imported from its
``src/`` directory.  With ``--workload NAME`` the last line printed is
that run's JSON result (``correct``, ``attempted``, ``failed``,
``metrics``); without it every workload runs in turn, followed by a
table of the end-to-end metrics and one JSON line keyed by workload.

Each workload runs in its own process, so ``peak_rss_mb`` is its own,
with ``PYTHONHASHSEED`` fixed so hash-ordered containers iterate the
same way in every run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.catalogue import PRINTED_END_TO_END, RUN_SECONDS, WORKLOADS  # noqa: E402

#: A workload run must end within this many seconds, set-up included.
CHILD_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_one(workload: str, seed: int, seconds: float, trace: int) -> Optional[dict]:
    """Run one workload in a child interpreter; its result, or None."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), ROOT])
    env["PYTHONHASHSEED"] = "0"
    command = [
        sys.executable, "-m", "perfbench",
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"error: {workload} did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0 or not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(proc.stdout)
        print(f"error: {workload} exited {proc.returncode} without a result", file=sys.stderr)
        return None
    print("\n".join(lines[:-1]), flush=True)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program source under {ROOT}/src", file=sys.stderr)
        return 2

    if args.workload is not None:
        result = run_one(args.workload, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        print(json.dumps(result))
        return 0

    results = {}
    for workload in WORKLOADS:
        result = run_one(workload, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        results[workload] = result
    if not args.trace:
        print(f"\n{'workload':<14}" + "".join(f"{name:>14}" for name in PRINTED_END_TO_END))
        for workload, result in results.items():
            values = [result["metrics"][name]["value"] for name in PRINTED_END_TO_END[:-1]]
            values.append(result["failed"] / result["attempted"])
            print(f"{workload:<14}" + "".join(f"{value:>14.4f}" for value in values))
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
