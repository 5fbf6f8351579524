"""Command-line interface: run any paper experiment from the shell.

The experiments themselves — name, description, run, tables — are the
rows of :data:`repro.bench.experiments.EXPERIMENTS`; this module parses
flags, dispatches to a row and holds the commands that are not
experiments (``_COMMANDS``).

Examples::

    python -m repro list
    python -m repro fig14
    python -m repro fig11b --scale 1.0
    python -m repro quickstart --trace-out /tmp/trace.json
    python -m repro quickstart --profile-out /tmp/profile.json
    python -m repro chaos-wordcount --seed 7
    python -m repro bench --json-out BENCH_ci.json
    python -m repro bench-check --baseline BENCH_0.json \
        --candidate BENCH_ci.json --format json
    python -m repro monitor --workload wordcount
    python -m repro diff --baseline BENCH_0.json --candidate BENCH_1.json

Global flags: ``--scale`` (input scale; also settable via
``REPRO_BENCH_SCALE``), ``--seed`` (run seed; also ``REPRO_CHAOS_SEED``
for chaos experiments), ``--trace-out PATH`` (collect cross-layer
telemetry for the whole run and export a Chrome trace-event file loadable
in chrome://tracing or Perfetto), and ``--profile-out PATH`` (run the
causal profiler: write per-trace critical-path reports to PATH and folded
flamegraph stacks to PATH + ".folded").
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Callable, Dict

from repro.analysis.report import Table
from repro.bench.config import chaos_seed
from repro.bench.experiments import EXPERIMENTS

#: Commands handled outside the EXPERIMENTS table (shown by ``list``).
_COMMANDS = {
    "list": "print every experiment with a one-line description",
    "all": "run every experiment in sequence",
    "bench": "write a BENCH_<n>.json benchmark snapshot "
             "(fixed seed/scale)",
    "bench-check": "compare two snapshots; exit 1 on regression",
    "monitor": "fleet SLO monitoring demo: chaos run with windowed "
               "percentiles and burn-rate alerts",
    "diff": "root-cause two snapshots: ranked per-location deltas",
    "fleet": "multi-tenant fleet simulation: open-loop traffic across "
             "sharded coordinators (--smoke for the CI config)",
    "triage": "run a fleet and rank root-cause evidence for every SLO "
              "alert (exemplar traces + saturation timelines)",
    "fork-bench": "bursty-traffic comparison of cold-start vs prewarm "
                  "vs remote-fork scale-up (p99 + resident frames)",
    "lineage": "page-provenance lineage report per transport: bytes "
               "moved vs touched, amplification, prefetch waste",
    "export": "run one invocation with telemetry and export the hub "
              "(--prom for OpenMetrics text)",
}


def _dump_json(data: Any, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _emit(args, data: Any, render: Callable[[Any], str]) -> int:
    """The shared tail of the report commands: write *data* to
    ``--json-out`` when given, then print it as JSON or as rendered
    text per ``--format``."""
    if args.json_out:
        _dump_json(data, args.json_out)
        print(f"wrote {args.json_out}", file=sys.stderr)
    if args.format == "json":
        print(json.dumps(data, sort_keys=True, indent=2))
    else:
        print(render(data))
    return 0


def _list(args) -> int:
    """Print every experiment and command with a one-line description."""
    width = max(map(len, list(EXPERIMENTS) + list(_COMMANDS)))
    for name in sorted(EXPERIMENTS):
        print(f"{name:<{width}}  {EXPERIMENTS[name].description}")
    for name in sorted(_COMMANDS):
        print(f"{name:<{width}}  {_COMMANDS[name]}")
    return 0


def _bench(args) -> int:
    """Run the benchmark matrix and persist a snapshot."""
    from repro.bench import snapshot as snap

    seed = args.seed if args.seed is not None else snap.DEFAULT_SEED
    scale = args.scale if args.scale is not None else snap.DEFAULT_SCALE
    result = snap.collect(seed=seed, scale=scale,
                          workloads=args.workload or None)
    path = args.json_out or snap.next_snapshot_path(".")
    snap.write_snapshot(result, path)
    print(f"wrote {path} (seed={seed}, scale={scale}, "
          f"workloads={sorted(result['workloads'])})", file=sys.stderr)
    return 0


def _bench_check(args) -> int:
    """Gate a candidate snapshot against the committed baseline."""
    from repro.bench import regression

    tolerance = args.tolerance if args.tolerance is not None \
        else regression.DEFAULT_TOLERANCE
    report = regression.check_paths(args.baseline, args.candidate,
                                    default_tolerance=tolerance)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0 if report.ok else 1


def _diff(args) -> int:
    """Root-cause two snapshots: where did the nanoseconds move?"""
    from repro.obs.diff import diff_snapshot_paths, render_diff

    report = diff_snapshot_paths(args.baseline, args.candidate)
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_diff(report))
    return 0


def _monitor(args) -> int:
    """Fleet monitoring demo: one chaos run under streaming SLO watch.

    Drives a seeded chaos run of one workload with a
    :class:`~repro.obs.FleetMonitor` attached; prints the windowed
    per-(tenant, workflow, transport) latency/availability series and
    the burn-rate alert timeline, all in simulated time.
    """
    from repro import obs
    from repro.chaos.runner import run_chaos_workflow

    workload = args.workload[0] if args.workload else "wordcount"
    monitor = obs.FleetMonitor()
    report = run_chaos_workflow(workload, seed=chaos_seed(),
                                monitor=monitor)
    if args.format == "json":
        print(json.dumps(monitor.snapshot(), indent=2, sort_keys=True))
    else:
        print(monitor.render())
        print()
        print(f"chaos availability: {report.availability:.2%} "
              f"({report.completed}/{report.invocations} invocations, "
              f"{len(monitor.alerts)} alerts)")
    return 0


#: ``--shards`` / ``--tenants`` / ``--duration`` when not given (they
#: default to None so a command that does not read one can refuse it)
_FLEET_SHARDS = 4
_FLEET_TENANTS = 8
_FLEET_DURATION_S = 10.0


def _fleet_spec(args):
    """Assemble the FleetSpec the fleet/triage commands share."""
    from repro.fleet import (FleetSpec, ScaleUpConfig, default_tenants,
                             smoke_spec)

    seed = args.seed if args.seed is not None else 0
    if args.smoke:
        spec = smoke_spec(seed=seed)
    else:
        tenants = args.tenants if args.tenants is not None \
            else _FLEET_TENANTS
        spec = FleetSpec(
            tenants=default_tenants(tenants), seed=seed,
            n_shards=args.shards if args.shards is not None
            else _FLEET_SHARDS,
            duration_s=args.duration if args.duration is not None
            else _FLEET_DURATION_S)
    spec.scale_up = ScaleUpConfig.from_kind(args.scale_up or "cold")
    for item in args.fail_shard or ():
        sid, _, at_s = item.partition("@")
        if not sid or not at_s:
            raise SystemExit(
                f"--fail-shard expects SHARD@SECONDS, got {item!r}")
        spec.shard_failures.append((float(at_s), sid))
    return spec


def _fork_bench(args) -> int:
    """Serve the same seeded bursty fleet under each scale-up
    mechanism (cold / prewarm / remote-fork) and compare worst-tenant
    p99 latency and resident memory footprint.  Deterministic: same
    seed → byte-identical JSON."""
    from repro.fork.bench import fork_bench, render_bench

    seed = args.seed if args.seed is not None else 0
    duration_s = args.duration if args.duration is not None \
        else _FLEET_DURATION_S
    return _emit(args, fork_bench(seed=seed, duration_s=duration_s),
                 render_bench)


def _write_triage(result, path: str) -> None:
    """Write the triage report as JSON to *path* and text to
    *path*.txt."""
    from repro.obs import render_triage

    report = result.triage()
    _dump_json(report, path)
    with open(path + ".txt", "w", encoding="utf-8") as fh:
        fh.write(render_triage(report))
        fh.write("\n")
    print(f"wrote {path} (+.txt)", file=sys.stderr)


def _fleet(args) -> int:
    """Run a multi-tenant fleet: seeded open-loop arrivals per tenant,
    placed on sharded coordinators by consistent hashing, with token-
    bucket admission and per-shard autoscaling.  Deterministic: same
    seed + same flags → byte-identical JSON."""
    from repro.api import run_fleet

    result = run_fleet(_fleet_spec(args))
    _emit(args, result.to_dict(), lambda _: result.render())
    if args.triage_out:
        _write_triage(result, args.triage_out)
    return 0


def _triage(args) -> int:
    """Run a fleet and auto-triage its SLO alerts: exemplar traces,
    saturation-timeline threshold crossings and injected faults fold
    into one ranked root-cause report per alert."""
    from repro.api import run_fleet
    from repro.obs import render_triage

    result = run_fleet(_fleet_spec(args))
    if args.triage_out:
        _write_triage(result, args.triage_out)
    return _emit(args, result.triage(), render_triage)


#: transports the ``lineage`` command compares when none are given —
#: the paper's hero (rmmap) against the serializing baselines.
_LINEAGE_TRANSPORTS = ("rmmap", "messaging", "storage-rdma")


def _lineage(args) -> int:
    """Run one workload per transport with page-provenance lineage and
    report bytes moved vs touched, transfer amplification, prefetch
    waste and duplicate pulls.  Deterministic: same seed + scale →
    byte-identical JSON."""
    from repro.api import run

    workload = args.workload[0] if args.workload else "wordcount"
    transports = list(args.transport or _LINEAGE_TRANSPORTS)
    seed = args.seed if args.seed is not None else 0
    scale = args.scale if args.scale is not None else \
        float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    reports = {}
    for name in transports:
        result = run(workload, transport=name, seed=seed, scale=scale,
                     lineage=True)
        reports[name] = result.lineage()
    payload = {"workload": workload, "seed": seed, "scale": scale,
               "transports": reports}

    def render(_payload) -> str:
        table = Table(
            f"lineage: {workload} seed={seed} scale={scale:g}",
            ["transport", "moved", "touched", "amplification",
             "prefetch waste", "dup pulls"])
        for name in transports:
            totals = reports[name]["totals"]
            amp = totals["amplification"]
            table.add_row(
                name, totals["bytes_moved"], totals["bytes_touched"],
                "n/a" if amp is None else f"{amp:.4f}",
                totals["prefetch_waste_bytes"],
                totals["duplicate_pulls"])
        return table.render()

    return _emit(args, payload, render)


def _export(args) -> int:
    """Run one invocation with telemetry and export the hub's metrics.

    ``--prom`` writes the counters / gauges / log-binned histograms as
    OpenMetrics (Prometheus) text to ``--out`` (or stdout)."""
    from repro import obs
    from repro.api import run

    if not args.prom:
        raise SystemExit("export: pass --prom (the only export format "
                         "so far); Chrome traces come from --trace-out "
                         "on any experiment")
    workload = args.workload[0] if args.workload else "wordcount"
    transport = (args.transport[0] if args.transport else "rmmap")
    seed = args.seed if args.seed is not None else 0
    result = run(workload, transport=transport, seed=seed,
                 telemetry=True)
    text = obs.to_prom_text(result.telemetry)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


#: name → handler for the commands in ``_COMMANDS`` (``all`` runs through
#: the EXPERIMENTS table in :func:`main`); each takes the parsed args
_HANDLERS: Dict[str, Callable[[Any], int]] = {
    "list": _list,
    "bench": _bench,
    "bench-check": _bench_check,
    "diff": _diff,
    "monitor": _monitor,
    "fleet": _fleet,
    "triage": _triage,
    "fork-bench": _fork_bench,
    "lineage": _lineage,
    "export": _export,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the RMMAP paper's experiments "
                    "(EuroSys 2024).")
    parser.add_argument("experiment",
                        choices=sorted(EXPERIMENTS) + sorted(_COMMANDS),
                        help="experiment to run (or 'list' / 'all' / "
                             "'bench' / 'bench-check')")
    parser.add_argument("--scale", type=float, default=None,
                        help="input scale factor (sets REPRO_BENCH_SCALE; "
                             "1.0 approaches paper-size inputs)")
    parser.add_argument("--seed", type=int, default=None,
                        help="run seed (sets REPRO_SEED and "
                             "REPRO_CHAOS_SEED; env vars remain the "
                             "fallback)")
    parser.add_argument("--trace-out", metavar="PATH", default=None,
                        help="collect cross-layer telemetry and write a "
                             "Chrome trace-event JSON file here")
    parser.add_argument("--profile-out", metavar="PATH", default=None,
                        help="profile the run: write critical-path "
                             "reports (JSON) here and folded flamegraph "
                             "stacks to PATH + '.folded'")
    parser.add_argument("--json-out", metavar="PATH", default=None,
                        help="bench: snapshot output path (default: next "
                             "free BENCH_<n>.json)")
    parser.add_argument("--workload", action="append", default=None,
                        help="bench: restrict the matrix to this workload "
                             "(repeatable)")
    parser.add_argument("--baseline", metavar="PATH",
                        default="BENCH_0.json",
                        help="bench-check/diff: baseline snapshot")
    parser.add_argument("--candidate", metavar="PATH", default=None,
                        help="bench-check/diff: candidate snapshot")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="bench-check: default relative tolerance "
                             "band per metric")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text",
                        help="bench-check/diff/monitor/fleet: output "
                             "format")
    parser.add_argument("--smoke", action="store_true", default=None,
                        help="fleet/triage: the small CI configuration "
                             "(3 tenants, 2 shards, 6 s, ~1e3 "
                             "invocations); refuses --shards, --tenants "
                             "and --duration")
    parser.add_argument("--shards", type=int, default=None,
                        help="fleet: coordinator shard count "
                             f"(default {_FLEET_SHARDS})")
    parser.add_argument("--tenants", type=int, default=None,
                        help="fleet: tenant count (default "
                             f"{_FLEET_TENANTS}, a mix of arrival shapes "
                             "and workloads)")
    parser.add_argument("--duration", type=float, default=None,
                        help="fleet/fork-bench: simulated seconds of "
                             f"traffic (default {_FLEET_DURATION_S:g})")
    parser.add_argument("--scale-up", choices=("cold", "prewarm", "fork"),
                        default=None, dest="scale_up",
                        help="fleet/triage: pod scale-up mechanism "
                             "(default cold)")
    parser.add_argument("--fail-shard", action="append", default=None,
                        metavar="SHARD@SECONDS",
                        help="fleet/triage: kill SHARD at the given "
                             "simulated second (repeatable), e.g. "
                             "shard-1@3.0")
    parser.add_argument("--triage-out", default=None, metavar="PATH",
                        help="fleet/triage: write the triage report as "
                             "JSON to PATH and rendered text to "
                             "PATH.txt")
    parser.add_argument("--transport", action="append", default=None,
                        help="lineage/export: transport name "
                             "(repeatable for lineage; default compares "
                             "rmmap, messaging, storage-rdma)")
    parser.add_argument("--prom", action="store_true",
                        help="export: emit OpenMetrics (Prometheus) "
                             "text")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="export: output path (default: stdout)")
    args = parser.parse_args(argv)

    if args.scale is not None:
        os.environ["REPRO_BENCH_SCALE"] = str(args.scale)
    if args.seed is not None:
        os.environ["REPRO_SEED"] = str(args.seed)
        os.environ["REPRO_CHAOS_SEED"] = str(args.seed)

    if args.experiment in ("bench-check", "diff") \
            and args.candidate is None:
        parser.error(f"{args.experiment} requires --candidate PATH")
    unread, why = (), ""
    if args.smoke and args.experiment in ("fleet", "triage"):
        unread, why = ("shards", "tenants", "duration"), \
            "--smoke runs the fixed smoke fleet"
    elif args.experiment == "fork-bench":
        unread, why = ("smoke", "shards", "tenants", "scale_up",
                       "fail_shard"), "fork-bench builds its own fleet"
    ignored = ["--" + name.replace("_", "-") for name in unread
               if getattr(args, name) is not None]
    if ignored:
        parser.error(f"{why}; drop {', '.join(ignored)}")
    handler = _HANDLERS.get(args.experiment)
    if handler is not None:
        return handler(args)

    hub = None
    if args.trace_out is not None or args.profile_out is not None:
        from repro import obs
        hub = obs.Telemetry()
        obs.install(hub)
    try:
        if args.experiment == "all":
            for name, row in sorted(EXPERIMENTS.items()):
                print(f"### {name}")
                row.show(row.run())
        else:
            row = EXPERIMENTS[args.experiment]
            row.show(row.run())
    finally:
        if hub is not None:
            from repro import obs
            obs.uninstall()
            if args.trace_out is not None:
                obs.write_chrome_trace(hub, args.trace_out)
                print(f"wrote Chrome trace to {args.trace_out}",
                      file=sys.stderr)
            if args.profile_out is not None:
                _write_profile(hub, args.profile_out)
    return 0


def _write_profile(hub, path: str) -> None:
    """Critical-path reports for every trace in *hub* → ``path`` (JSON);
    folded flamegraph stacks, trace-id-prefixed, → ``path + '.folded'``."""
    from repro import obs

    ids = obs.trace_ids(hub)
    if not ids:
        print(f"no causal traces recorded; skipping {path}",
              file=sys.stderr)
        return
    reports = {}
    folded_lines = []
    for trace_id in ids:
        report = obs.critical_path_report(hub, trace_id=trace_id)
        reports[trace_id] = report
        root = obs.build_span_tree(hub, trace_id=trace_id)
        for line in obs.folded_stacks(root).splitlines():
            folded_lines.append(f"{trace_id};{line}")
    _dump_json(reports, path)
    with open(path + ".folded", "w", encoding="utf-8") as fh:
        fh.write("\n".join(folded_lines) + "\n")
    print(f"wrote critical-path profile to {path} "
          f"(+ {path}.folded, {len(ids)} traces)", file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
