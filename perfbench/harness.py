"""Runs one workload and turns its units into named metrics.

Two kinds of run, never mixed:

* the **timed run** (:func:`timed_run`) executes unwrapped code with
  telemetry off, cells round-robin until the time budget is spent (and
  at least one full pass is done), and yields the end-to-end metrics;
* the **traced run** (:func:`traced_run`) makes one plain pass, one pass
  observed by the program's own telemetry hub (exact counts, lineage),
  and one pass with the span wrappers installed; it yields the per-layer
  metrics.  The probes do not depend on the workload, so only the
  workload marked ``runs_probes`` runs them.

Both clocks are reported and named: ``host_*`` is what the simulator
costs to run, ``sim_*`` is what the modelled datacenter would take.
Simulated numbers are a pure function of code and seed, so a repeat of
the same cell that differs is counted as a failed op, not as noise.
"""

from __future__ import annotations

import gc
import os
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Optional

from perfbench import probes, stats
from perfbench.tracer import Tracer, span_names
from perfbench.workloads import Unit, Workload, _add

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


@dataclass
class RunResult:
    """Everything one run of one workload produced."""

    workload: str
    seed: int
    traced: bool
    attempted: int = 0
    failed: int = 0
    #: metric name -> value; a metric that does not apply is absent
    metrics: Dict[str, float] = field(default_factory=dict)
    #: metric name -> sample count behind a median / percentile
    samples: Dict[str, int] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)


class _Checker:
    """Counts attempted and failed ops; a cell whose signature changes
    between runs fails all its ops (non-determinism is a failure)."""

    def __init__(self, workload: Workload, result: RunResult):
        self.signatures: Dict[Hashable, Any] = dict(workload.signatures)
        self.result = result

    def run(self, workload: Workload, cell: Hashable, **kwargs
            ) -> Optional[Unit]:
        # start every unit from a collected heap, so that one unit's
        # garbage is not swept on the next unit's clock
        gc.collect()
        try:
            prepared = workload.prepare(cell)
            unit = workload.run(cell, prepared, **kwargs)
        except Exception:  # noqa: BLE001 - a raising op is a failed op
            traceback.print_exc(file=sys.stderr)
            self.result.attempted += 1
            self.result.failed += 1
            self.result.notes.append(f"{cell}: raised")
            return None
        failed = unit.failed
        known = self.signatures.setdefault(cell, unit.signature)
        if known != unit.signature:
            failed = unit.ops
            self.result.notes.append(
                f"{cell}: simulated result changed between repeats")
        elif failed:
            self.result.notes.append(f"{cell}: {failed} wrong output(s)")
        self.result.attempted += unit.ops
        self.result.failed += failed
        return unit


def _peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _pass_over(workload: Workload,
               run_cell: Callable[[Hashable], Optional[Unit]]
               ) -> List[Unit]:
    """One pass over the cells; ops that raised are left out."""
    units = [run_cell(cell) for cell in workload.cells()]
    return [u for u in units if u is not None]


def _derived_counts(counts: Dict[str, float], ops: int, host_s: float
                    ) -> Dict[str, float]:
    """Public metric names from one pass's summed counts."""
    out = {k: v for k, v in counts.items() if not k.startswith("_")}
    if counts.get("_path_busy_ns"):
        out["sim_transfer_share"] = (counts["_path_transfer_ns"]
                                     / counts["_path_busy_ns"])
    if counts.get("_bytes_touched"):
        out["transfer.amplification"] = (counts["_bytes_moved"]
                                         / counts["_bytes_touched"])
    if counts.get("_pages_prefetched"):
        out["transfer.prefetch_useful_ratio"] = (
            1.0 - counts["_pages_prefetched_unused"]
            / counts["_pages_prefetched"])
    if "_events" in counts and ops:
        out["sim.events_per_op"] = counts["_events"] / ops
        out["sim.events_per_host_s"] = counts["_events"] / host_s
    if "_records" in counts and ops:
        out["obs.records_per_op"] = counts["_records"] / ops
    return out


def _sum_counts(units: List[Unit]) -> Dict[str, float]:
    total: Dict[str, float] = {}
    for unit in units:
        _add(total, unit.counts)
    return total


def _set_up(workload: Workload, result: RunResult, started: float) -> bool:
    """Run the workload's set-up and report its time.  A set-up that
    raises is a failed op: the run still reports what it has."""
    try:
        workload.setup()
        ok = True
    except Exception:  # noqa: BLE001 - counted and reported, not hidden
        traceback.print_exc(file=sys.stderr)
        result.attempted += 1
        result.failed += 1
        result.notes.append("set-up raised")
        ok = False
    result.metrics["setup_s"] = time.perf_counter() - started
    return ok


def _finish(result: RunResult, workload: Workload,
            first_pass: List[Unit]) -> None:
    """Metrics every run reports: the simulated clock and correctness."""
    if first_pass:
        result.metrics.update(workload.sim_metrics(first_pass))
    result.metrics.update(workload.fixed_metrics)
    result.metrics["fail_ratio"] = (result.failed / result.attempted
                                    if result.attempted else 1.0)
    result.metrics["host_peak_rss_mb"] = _peak_rss_mb()


# ------------------------------------------------------------- timed run

def _round_robin(workload: Workload, checker: _Checker, seconds: float):
    """Yield ``(pass index, cell, unit)``: whole passes over the cells
    until the budget is spent, then stop at the next unit boundary.  The
    first pass always completes, whatever the budget."""
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        for cell in workload.cells():
            yield index, cell, checker.run(workload, cell)
            if index and time.perf_counter() >= deadline:
                return
        index += 1
        if time.perf_counter() >= deadline:
            return


def timed_run(workload: Workload, seconds: float, started: float
              ) -> RunResult:
    """Set up, then time cells round-robin for *seconds* (at least one
    full pass).  *started* is the ``perf_counter`` reading taken before
    the program was imported, so set-up time includes the import."""
    result = RunResult(workload.name, workload.seed, traced=False)
    if not _set_up(workload, result, started):
        _finish(result, workload, [])
        return result
    checker = _Checker(workload, result)

    cells = workload.cells()
    host: Dict[Hashable, List[float]] = {c: [] for c in cells}
    ops: Dict[Hashable, int] = {}
    first_pass: List[Unit] = []
    for index, cell, unit in _round_robin(workload, checker, seconds):
        if unit is not None:
            host[cell].append(unit.host_s)
            ops[cell] = unit.ops
            if index == 0:
                first_pass.append(unit)

    # One median per cell, then combine: a cell timed twice and a cell
    # timed once weigh the same, so the partial last pass cannot tilt
    # the mix of cheap and expensive cells.
    timed = [c for c in cells if host[c]]
    if timed:
        cell_s = {c: stats.median(host[c]) for c in timed}
        result.metrics["host_ops_per_s"] = (
            sum(ops[c] for c in timed) / sum(cell_s.values()))
        result.metrics["host_ms_p50"] = stats.median(
            [1e3 * cell_s[c] / ops[c] for c in timed])
        result.samples["host_ops_per_s"] = sum(len(host[c]) for c in timed)
        result.samples["host_ms_p50"] = len(timed)
    _finish(result, workload, first_pass)
    return result


# ------------------------------------------------------------ traced run

def traced_run(workload: Workload, started: float) -> RunResult:
    """One plain, one observed and one traced pass."""
    from repro import obs

    result = RunResult(workload.name, workload.seed, traced=True)
    if not _set_up(workload, result, started):
        _finish(result, workload, [])
        return result
    checker = _Checker(workload, result)
    tracer = Tracer()

    plain = _pass_over(workload,
                       lambda cell: checker.run(workload, cell))
    plain_s = sum(u.host_s for u in plain)
    plain_ops = sum(u.ops for u in plain)

    # Observed pass: the program's own hub and lineage tracker give the
    # exact counts.  A workload that always runs under its own hub has
    # been observed already.
    def observe(cell: Hashable) -> Optional[Unit]:
        hub = obs.Telemetry()
        hub.enable_lineage()
        return checker.run(workload, cell, hub=hub, tracer=tracer)

    observed = plain
    if not workload.brings_own_hub:
        observed = _pass_over(workload, observe)
        result.metrics["obs.overhead_ratio"] = (
            sum(u.host_s for u in observed) / plain_s)
    result.metrics.update(_derived_counts(
        _sum_counts(observed), plain_ops, plain_s))

    def trace(cell: Hashable) -> Optional[Unit]:
        with tracer.op(str(cell)):
            return checker.run(workload, cell)

    with tracer.installed():
        traced = _pass_over(workload, trace)
    result.metrics["trace.overhead_ratio"] = (
        sum(u.host_s for u in traced) / plain_s)

    summary = tracer.summary()
    for name in span_names():
        calls, self_ns = summary.get(name, (0, 0))
        result.metrics[f"{name}.calls"] = calls
        result.metrics[f"{name}.self_s"] = self_ns / 1e9
    # self times partition each op: their sum is the op's duration
    for op_id, (duration, self_sum) in tracer.op_durations().items():
        if abs(duration - self_sum) > 0.01 * duration:
            result.notes.append(
                f"op {tracer.ops[op_id]}: span self times sum to "
                f"{self_sum} ns, traced duration is {duration} ns")
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"trace-{workload.name}.json"),
                 workload.name)

    if workload.runs_probes:
        result.metrics.update(probes.run_all(quick=workload.quick))
    _finish(result, workload, plain)
    return result
