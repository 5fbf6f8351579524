"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py A.json B.json
    python3 perfbench/compare.py --collect A.json [--seed S]
    python3 perfbench/compare.py --self-check [--seed S]

A *set* holds, for every workload, :data:`RUNS` timed runs and one traced
run of one tree at one seed (``--collect`` makes one).  The comparison prints
one row per workload × metric — A's value (the base), B's value, the
ratio B/A, each side's run-to-run spread — and a verdict:

* ``same`` / ``better`` / ``worse`` — for a host-clock metric, B's median
  against A's with the metric's bound from ``BENCHMARK.json`` (per-layer
  host metrics have no bound there; :data:`LAYER_BAND` is used).
  End-to-end host metrics are read from the timed runs only, per-layer
  ones from the traced run only;
* ``unresolved`` — the spread of either side is wider than the bound, so
  a difference of that size cannot be told from noise (unless every run
  of B reads better than every run of A);
* simulated-clock metrics and counts are compared **exactly**: the same
  seed on the same model must repeat to the last digit, so any
  difference is ``better`` or ``worse``, never noise.

``--self-check`` collects two sets from the current tree, alternating
their runs, and fails if they disagree: a bounded or exact metric that
reads ``better`` or ``worse``, or any failed op.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [ROOT]

from perfbench import stats  # noqa: E402
from perfbench.spec import DEFAULT_SEED, clock_of, load_spec  # noqa: E402

VERDICTS = ("same", "better", "worse", "unresolved")

#: band for per-layer host metrics, which carry no bound of their own
LAYER_BAND = 0.25

#: timed runs per workload in a set (plus one traced run)
RUNS = 5


@dataclass
class Row:
    workload: str
    metric: str
    clock: str
    base: float
    other: float
    spread_base: Optional[float]
    spread_other: Optional[float]
    verdict: str

    @property
    def ratio(self) -> Optional[float]:
        return self.other / self.base if self.base else None


# ---------------------------------------------------------------- verdicts

def _spread(values: Sequence[float]) -> Optional[float]:
    return stats.iqr_share(values) if len(values) >= 2 else None


def verdict_host(base: Sequence[float], other: Sequence[float],
                 better: str, bound: float) -> str:
    """Median against median with *bound*; see the module docstring."""
    sign = 1.0 if better == "lower" else -1.0
    med_base, med_other = stats.median(base), stats.median(other)
    if not med_base:
        return "same" if not med_other else "unresolved"
    worse_by = sign * (med_other - med_base) / abs(med_base)
    spreads = [s for s in (_spread(base), _spread(other)) if s is not None]
    if spreads and max(spreads) > bound:
        every_run_better = (max(other) < min(base) if better == "lower"
                            else min(other) > max(base))
        return "better" if every_run_better else "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def verdict_exact(base: Sequence[float], other: Sequence[float],
                  better: str) -> str:
    """Exact comparison; a side that disagrees with itself is
    ``unresolved`` (its runs were not a pure function of the seed)."""
    if len(set(base)) > 1 or len(set(other)) > 1:
        return "unresolved"
    if base[0] == other[0]:
        return "same"
    lower = other[0] < base[0]
    return "better" if lower == (better == "lower") else "worse"


# -------------------------------------------------------------------- sets

def _run_child(workload: str, seed: int, traced: bool, out: str) -> dict:
    """One benchmark run in a child process; its ``--json-out`` document.
    A child that dies before writing one (set-up out of memory, a crash
    of the interpreter) is a failed op, not the end of the collection."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--trace", str(int(traced)), "--json-out", out],
        check=False, stdout=subprocess.DEVNULL)
    if not os.path.exists(out):
        return {"workload": workload, "seed": seed, "traced": traced,
                "attempted": 1, "failed": 1, "metrics": {}, "samples": {},
                "notes": [f"run exited with code {proc.returncode} "
                          "before writing its result"]}
    with open(out, encoding="utf-8") as fh:
        doc = json.load(fh)
    os.remove(out)
    return doc


def collect(paths: Sequence[str], seed: int, spec: dict) -> None:
    """Run every workload :data:`RUNS` times timed and once traced for
    each set in *paths*, one child process at a time, and write the sets.
    With two sets the runs alternate (A B, B A, A B ...), so a slow spell
    of the machine falls on both sides."""
    docs: Dict[str, List[dict]] = {path: [] for path in paths}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as tmp:
        out = os.path.join(tmp, "run.json")
        for entry in spec["workloads"]:
            for index in range(RUNS + 1):
                traced = index == RUNS
                for path in (paths if index % 2 == 0 else paths[::-1]):
                    print(f"+ {entry['name']} seed={seed} "
                          f"{'traced' if traced else 'timed'} -> "
                          f"{os.path.basename(path)}", file=sys.stderr)
                    docs[path].append(
                        _run_child(entry["name"], seed, traced, out))
    for path in paths:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"schema": "perfbench-set/v1", "seed": seed,
                       "runs": docs[path]}, fh, indent=1, sort_keys=True)


def load_set(path: str) -> Dict[str, List[dict]]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    by_workload: Dict[str, List[dict]] = {}
    for run in doc["runs"]:
        by_workload.setdefault(run["workload"], []).append(run)
    return by_workload


def _values(runs: List[dict], metric: dict) -> List[float]:
    """The runs' values of *metric*.  A host number depends on the kind
    of run that took it (a traced run makes three passes and carries
    wrappers), so host metrics pool runs of one kind only; simulated
    and exact numbers are the same in both kinds."""
    name = metric["name"]
    if clock_of(name) == "host":
        runs = [r for r in runs if r["traced"] == ("bound" not in metric)]
    return [r["metrics"][name] for r in runs if name in r["metrics"]]


def compare_sets(base: Dict[str, List[dict]], other: Dict[str, List[dict]],
                 spec: dict) -> List[Row]:
    rows: List[Row] = []
    for entry in spec["workloads"]:
        name = entry["name"]
        for metric in spec["end_to_end"] + spec["per_layer"]:
            a = _values(base.get(name, []), metric)
            b = _values(other.get(name, []), metric)
            if not a or not b:
                continue
            clock = clock_of(metric["name"])
            if clock == "host":
                verdict = verdict_host(a, b, metric["better"],
                                       metric.get("bound", LAYER_BAND))
            else:
                verdict = verdict_exact(a, b, metric["better"])
            rows.append(Row(name, metric["name"], clock,
                            stats.median(a), stats.median(b),
                            _spread(a), _spread(b), verdict))
    return rows


def failed_ops(runs_by_workload: Dict[str, List[dict]]) -> int:
    return sum(r["failed"] for runs in runs_by_workload.values()
               for r in runs)


def render(rows: List[Row]) -> str:
    def pct(x: Optional[float]) -> str:
        return "    -" if x is None else f"{100 * x:5.1f}"

    lines = [f"{'workload':<14} {'metric':<42} {'clock':<5} "
             f"{'A (base)':>13} {'B':>13} {'B/A':>7} "
             f"{'sprA%':>5} {'sprB%':>5}  verdict"]
    for row in rows:
        ratio = "      -" if row.ratio is None else f"{row.ratio:7.3f}"
        lines.append(
            f"{row.workload:<14} {row.metric:<42} {row.clock:<5} "
            f"{row.base:13.6g} {row.other:13.6g} {ratio} "
            f"{pct(row.spread_base)} {pct(row.spread_other)}  {row.verdict}")
    tally = {v: sum(1 for r in rows if r.verdict == v) for v in VERDICTS}
    lines.append("  ".join(f"{v}: {n}" for v, n in tally.items()))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("sets", nargs="*", metavar="SET.json",
                        help="two sets to compare: A (base) and B")
    parser.add_argument("--collect", metavar="FILE",
                        help="run the benchmark and write one set")
    parser.add_argument("--self-check", action="store_true",
                        help="collect two sets of this tree; fail if "
                             "they disagree")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args(argv)
    spec = load_spec()

    if args.collect:
        collect([args.collect], args.seed, spec)
        return 0
    if args.self_check:
        out = os.path.join(HERE, "out")
        paths = [os.path.join(out, f"self-check-{side}.json")
                 for side in "AB"]
        collect(paths, args.seed, spec)
    elif len(args.sets) == 2:
        paths = args.sets
    else:
        parser.error("give two sets, or --collect FILE, or --self-check")

    base, other = load_set(paths[0]), load_set(paths[1])
    rows = compare_sets(base, other, spec)
    print(render(rows))
    failures = failed_ops(base) + failed_ops(other)
    if failures:
        print(f"{failures} op(s) failed their correctness check")
    if not args.self_check:
        return 0
    # Same code on both sides: every bounded or exact metric must agree.
    # ``unresolved`` means the box was too noisy to tell, not that the
    # sets disagree; per-layer host metrics carry no bound and are shown,
    # not judged.
    bounded = {m["name"] for m in spec["end_to_end"]}
    judged = [r for r in rows if r.clock != "host" or r.metric in bounded]
    disagreeing = [r for r in judged if r.verdict in ("better", "worse")]
    unresolved = sum(1 for r in judged if r.verdict == "unresolved")
    print(f"self-check: {len(disagreeing)} disagreeing row(s), "
          f"{unresolved} unresolved, {failures} failed op(s)")
    return 1 if disagreeing or failures else 0


if __name__ == "__main__":
    sys.exit(main())
