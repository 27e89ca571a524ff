"""The closed-loop runner: set-up, warm-up, timed ops, checks, result.

One run of one workload, in this process and from this one thread:

1. set up ``SETUP_REPEATS`` times, timing each set-up; ``setup_s`` is
   their median and the ops run on the last one;
2. run one warm-up op, checked but not timed (the first attack of a
   process is usually its slowest);
3. run ops back to back until ``seconds`` have passed, each one timed
   and then checked outside its timing;
4. run the workload's final check, and report.

The end-to-end host times are scaled to a reference host's by
:mod:`perfbench.calibration`, which samples the host's speed on a timer
through the set-ups and ops.

A traced run alternates untraced and traced ops after the warm-up: the
end-to-end medians of the two halves give the tracing overhead, and the
traced half alone feeds the per-layer ledger.
"""

from __future__ import annotations

import os
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from .calibration import Calibrator
from .catalogue import END_TO_END, PER_LAYER, WORKLOADS as OP_DEFINITIONS
from .ledger import Instrumentation, Tracer, ledger_lines, per_layer_metrics
from .workloads import WORKLOADS, Workload

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


@dataclass
class OpRecord:
    index: int
    #: measured host seconds, and the same in reference-host seconds.
    seconds: float = 0.0
    scaled: float = 0.0
    #: calibration marks at the op's start and end.
    marks: Tuple[Tuple[float, float], ...] = ()
    gets: int = 0
    sim_s: float = 0.0
    traced: bool = False
    failed: bool = False
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def pages_per_s(self) -> float:
        return self.gets / self.scaled if self.scaled > 0 else 0.0


@dataclass
class RunReport:
    workload: str
    #: the JSON result: ``correct``, ``attempted``, ``failed``, ``metrics``.
    result: dict
    #: the human-readable report (metrics, and the ledger when traced).
    lines: List[str]
    ops: List[OpRecord]
    tracer: Optional[Tracer] = None


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(ops: List[OpRecord], setup_seconds: List[float]) -> Dict[str, float]:
    """The end-to-end medians over the given (timed, successful) ops.

    Host times are the ops' and set-ups' reference-host seconds.
    """
    return {
        "setup_s": _median(setup_seconds),
        "pages_per_s": _median([op.pages_per_s for op in ops]),
        "op_s_p50": _median([op.scaled for op in ops]),
        "sim_s_per_op": _median([op.sim_s for op in ops]),
        "gets_per_op": _median([float(op.gets) for op in ops]),
        "peak_rss_mb": _peak_rss_mb(),
    }


def _run_op(
    workload: Workload,
    record: OpRecord,
    tracer: Optional[Tracer],
    instrumentation: Optional[Instrumentation],
    calibrator: Calibrator,
) -> Optional[str]:
    """Run and time one op, then check it; return why it failed, if it did."""
    span = -1
    if record.traced:
        instrumentation.install()
        span = tracer.begin_op(record.index)
    try:
        start = calibrator.mark()
        try:
            result = workload.op(record.index)
        finally:
            record.marks = (start, calibrator.mark())
            record.seconds = record.marks[1][0] - start[0]
            if record.traced:
                record.counts = tracer.end_op(span)
                instrumentation.uninstall()
                # A traced op's time is its root span, so the layers'
                # self times add up to it exactly.
                record.seconds = tracer.end[span] - tracer.start[span]
    except Exception:  # the loop keeps running; the op counts as failed
        return f"op {record.index} raised:\n{traceback.format_exc()}"
    record.gets = result.gets
    record.sim_s = result.sim_s
    record.counts.update(result.counts)
    return workload.check(record.index, result)


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    size: str = "full",
    span_path: Optional[str] = None,
) -> RunReport:
    """One closed-loop run of one workload; see the module docstring."""
    workload = WORKLOADS[name](seed, size)
    with Calibrator() as calibrator:
        ops, setup_marks, setups, tracer, errors = _measure(
            workload, seconds, trace, calibrator
        )
    setup_seconds = [calibrator.scale(*marks) for marks in setup_marks]
    for record in ops:
        record.scaled = calibrator.scale(*record.marks)
    final_error = workload.finish()
    if final_error is not None:
        errors.append(final_error)
        ops[-1].failed = True
    return _report(name, seed, size, ops, setup_seconds, setups, tracer, errors, span_path)


def _measure(workload: Workload, seconds: float, trace: bool, calibrator: Calibrator):
    """Set up, warm up and run the timed ops; the records of each."""
    setup_marks: List[Tuple[Tuple[float, float], ...]] = []
    setups: List[Dict[str, float]] = []
    for _ in range(SETUP_REPEATS):
        workload.teardown()
        start = calibrator.mark()
        setups.append(workload.setup())
        setup_marks.append((start, calibrator.mark()))

    tracer = Tracer() if trace else None
    instrumentation = Instrumentation(tracer) if trace else None
    ops: List[OpRecord] = []
    errors: List[str] = []
    deadline = None
    index = 0
    # Stop at the deadline, but only after at least one timed op (two
    # when tracing, so both halves are measured).
    while deadline is None or perf_counter() < deadline or index < (3 if trace else 2):
        record = OpRecord(index, traced=trace and index > 0 and index % 2 == 0)
        error = _run_op(workload, record, tracer, instrumentation, calibrator)
        if error is not None:
            record.failed = True
            errors.append(error)
        ops.append(record)
        if deadline is None:
            deadline = perf_counter() + seconds
        index += 1
    return ops, setup_marks, setups, tracer, errors


def _report(
    name: str,
    seed: int,
    size: str,
    ops: List[OpRecord],
    setup_seconds: List[float],
    setups: List[Dict[str, float]],
    tracer: Optional[Tracer],
    errors: List[str],
    span_path: Optional[str],
) -> RunReport:
    """The run's result and its printed report."""
    trace = tracer is not None
    failed = sum(op.failed for op in ops)
    timed = [op for op in ops[1:] if not op.failed]
    untraced = [op for op in timed if not op.traced]
    values = end_to_end(untraced, setup_seconds)
    lines = [
        f"workload {name}: seed {seed}, size {size}, {len(ops)} ops "
        f"({len(timed)} timed and passed, 1 warm-up), {failed} failed",
        f"  {OP_DEFINITIONS[name][0]}",
    ]
    units = {metric: unit for metric, unit, _, _ in END_TO_END}
    for metric, value in values.items():
        lines.append(f"  {metric:<14} {value:>14.4f} {units[metric]}")
    lines.append(f"  {'failed_ops':<14} {failed / len(ops):>14.4f} share of {len(ops)} ops")
    for error in errors:
        print(error, file=sys.stderr)

    if trace:
        traced = {op.index: op.counts for op in timed if op.traced}
        traced_pps = _median([op.pages_per_s for op in timed if op.traced])
        overhead = 1.0 - traced_pps / values["pages_per_s"] if values["pages_per_s"] else 0.0
        layer_values = per_layer_metrics(tracer, traced, setups, overhead)
        lines.extend(
            ledger_lines(
                name,
                tracer,
                layer_values,
                {op.index: op.seconds for op in ops},
                values["pages_per_s"],
                traced_pps,
            )
        )
        metrics = {
            metric: {"value": layer_values[metric], "unit": unit}
            for metric, unit, _ in PER_LAYER
        }
        if span_path is not None:
            os.makedirs(os.path.dirname(span_path) or ".", exist_ok=True)
            tracer.write(span_path)
            lines.append(f"spans written to {os.path.relpath(span_path)}")
    else:
        metrics = {
            metric: {"value": values[metric], "unit": unit}
            for metric, unit, _, _ in END_TO_END
        }
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    return RunReport(name, result, lines, ops, tracer)
