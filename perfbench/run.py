"""Benchmark entry point.

    python3 perfbench/run.py [--workload W] [--seed S] [--seconds N]
                             [--trace 0|1] [--quick] [--json-out F]

Without ``--workload`` every workload runs, one child process at a time
(so peak RSS and import state are per workload).  With it, that workload
runs in this process and the last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` — every
end-to-end metric of ``BENCHMARK.json`` with ``--trace 0``, every
per-layer metric with ``--trace 1``.  The exit code is non-zero when any
op failed its correctness check; the metrics are printed either way.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # before the program is imported

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

# One thread per workload process: numpy's BLAS would otherwise start a
# second, spinning thread inside the ml workflows' PCA fits, and on a
# two-core box that thread competes with the one being measured.  Must be
# set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from perfbench.spec import DEFAULT_SEED, clock_of, load_spec  # noqa: E402


def contract_line(result, spec: dict) -> str:
    """The last line the contract asks for.  Every listed metric is
    present; one that does not apply to this workload reads 0."""
    listed = spec["per_layer"] if result.traced else spec["end_to_end"]
    metrics = {m["name"]: {"value": result.metrics.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in listed}
    return json.dumps({"correct": result.failed == 0,
                       "attempted": result.attempted,
                       "failed": result.failed,
                       "metrics": metrics})


def report(result, spec: dict) -> str:
    """Every metric by name, with its unit and its clock; beside every
    simulated number, how far it can be trusted."""
    listed = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    if "paper_err_pct" in result.metrics:
        accuracy = (f"  [model error {result.metrics['paper_err_pct']:.1f}"
                    "% against the paper's §2.4]")
    else:
        accuracy = ("  [shape-only at this scale, no error figure: "
                    "EXPERIMENTS.md]")
    lines = [f"== {result.workload}  seed={result.seed}  "
             f"{'traced' if result.traced else 'timed'} run =="]
    for name in sorted(result.metrics):
        unit = listed.get(name, {}).get("unit", "")
        clock = clock_of(name)
        count = (f"  (n={result.samples[name]})"
                 if name in result.samples else "")
        lines.append(f"  {clock:<5} {name:<44} "
                     f"{result.metrics[name]:>16.6g} {unit}{count}"
                     f"{accuracy if clock == 'sim' else ''}")
    lines.append(f"  ops attempted={result.attempted} "
                 f"failed={result.failed}")
    lines += [f"  note: {note}" for note in result.notes]
    return "\n".join(lines)


def run_one(args, spec: dict) -> int:
    # Without the program there is nothing to report: fail here, before
    # the harness starts counting raised exceptions as failed ops.
    import repro  # noqa: F401

    from perfbench import harness
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, quick=args.quick)
    if args.trace:
        result = harness.traced_run(workload, STARTED)
    else:
        result = harness.timed_run(workload, args.seconds, STARTED)
    print(report(result, spec))
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump({"workload": result.workload, "seed": result.seed,
                       "traced": result.traced,
                       "attempted": result.attempted,
                       "failed": result.failed,
                       "metrics": result.metrics,
                       "samples": result.samples,
                       "notes": result.notes}, fh, indent=1,
                      sort_keys=True)
    print(contract_line(result, spec))
    return 1 if result.failed else 0


def run_all(args, spec: dict) -> int:
    """Each workload in its own child process, one at a time."""
    status = 0
    for entry in spec["workloads"]:
        cmd = [sys.executable, os.path.abspath(__file__),
               "--workload", entry["name"], "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.quick:
            cmd.append("--quick")
        if args.json_out:
            stem, ext = os.path.splitext(args.json_out)
            cmd += ["--json-out", f"{stem}-{entry['name']}{ext}"]
        status |= subprocess.run(cmd, check=False).returncode
    return status


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run one workload in this process "
                             "(default: all, one child process each)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="time budget of the timed section (default: "
                             "run_seconds of BENCHMARK.json; 0.2 with "
                             "--quick)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: the traced run (per-layer metrics)")
    parser.add_argument("--quick", action="store_true",
                        help="toy sizes, for the test suite")
    parser.add_argument("--json-out", metavar="FILE",
                        help="also write every metric to FILE "
                             "(FILE-<workload> when running all)")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.2 if args.quick else spec["run_seconds"]
    return (run_one if args.workload else run_all)(args, spec)


if __name__ == "__main__":
    sys.exit(main())
