"""The experiment table: every ``python -m repro <name>`` in one place.

One :class:`Experiment` row per CLI experiment — its name, the one-line
description ``repro list`` prints, a ``run`` callable (the figure
function, or several keyed by part) and a ``tables(results)`` renderer
that returns what ``repro <name>`` prints.  The CLI, ``benchmarks/``,
the tier-1 smoke test and ``examples/`` all iterate :data:`EXPERIMENTS`;
adding a figure is one row here.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Union

from repro import obs
from repro.analysis.report import Table, format_ns
from repro.api import run
from repro.bench import ablations as ab
from repro.bench.config import bench_scale, chaos_seed
from repro.bench.figures_micro import (fig11a_datatypes,
                                       fig11b_payload_sweep, fig16b_naos,
                                       section24_calibration)
from repro.bench.figures_platform import (fig12_fixed_rate,
                                          fig12_saturated,
                                          fig15_factor_analysis,
                                          fig16a_memory)
from repro.bench.figures_workflow import (fig3_transfer_share,
                                          fig5_serialization_share,
                                          fig13a_epochs, fig13b_payload,
                                          fig13c_width, fig13d_java,
                                          fig14_end_to_end)
from repro.chaos import run_chaos_workflow

#: what a renderer returns: tables, and for the rows that close with
#: prose (quickstart's speedup line, a chaos report) plain text
Block = Union[Table, str]


@dataclass(frozen=True)
class Experiment:
    """One row of :data:`EXPERIMENTS`."""

    name: str
    description: str
    run: Callable[[], Any]
    tables: Callable[[Any], List[Block]]

    def show(self, results: Any) -> None:
        """Print *results* exactly as ``python -m repro <name>`` does."""
        for block in self.tables(results):
            if isinstance(block, Table):
                block.print()
            else:
                print(block)


def _each(**parts: Callable[[], Any]) -> Callable[[], Dict[str, Any]]:
    """A ``run`` callable for a row made of several figure functions:
    runs each and keys the results by part name."""
    return lambda: {key: fn() for key, fn in parts.items()}


# --- renderers ---------------------------------------------------------------

def _fig3_tables(results) -> List[Block]:
    return [Table(
        "Fig 3: state-transfer cost breakdown",
        ["workflow", "transport", "e2e_ms", "func", "serdes", "software",
         "transfer-ratio"],
        [(wf, tname, d["e2e_ms"], d["func_share"], d["serdes_share"],
          d["software_share"], d["transfer_share"])
         for wf, row in results.items() for tname, d in row.items()])]


def _fig5_tables(results) -> List[Block]:
    return [Table(
        "Fig 5: (de)serialization share (zero software path)",
        ["workflow", "transport", "e2e_ms", "serdes-share"],
        [(wf, tname, d["e2e_ms"], d["serdes_share"])
         for wf, row in results.items() for tname, d in row.items()])]


def _fig11a_tables(results) -> List[Block]:
    return [Table(
        "Fig 11a: per-type T/N/R",
        ["type", "transport", "T", "N", "R", "E2E"],
        [(type_name, tname, format_ns(res.breakdown.transform_ns),
          format_ns(res.breakdown.network_ns),
          format_ns(res.breakdown.reconstruct_ns),
          format_ns(res.breakdown.e2e_ns))
         for type_name, row in results.items()
         for tname, res in row.items()])]


def _fig11b_tables(results) -> List[Block]:
    names = list(next(iter(results.values())))
    return [Table(
        "Fig 11b: E2E vs list(int) entries", ["entries"] + names,
        [(count, *[format_ns(row[n]) for n in names])
         for count, row in sorted(results.items())])]


def _fig12_tables(results) -> List[Block]:
    return [
        Table("Fig 12 (upper): saturated",
              ["transport", "tput/s", "p50_ms", "p99_ms"],
              [(tname, d["throughput_per_s"], d["stats"].p50_ms,
                d["stats"].p99_ms)
               for tname, d in results["saturated"].items()]),
        Table("Fig 12 (lower): fixed rate",
              ["transport", "tput/s", "mean-pods", "p50_ms", "p99_ms"],
              [(tname, d["throughput_per_s"], d["mean_pods"],
                d["stats"].p50_ms, d["stats"].p99_ms)
               for tname, d in results["fixed"].items()]),
    ]


def _fig13_tables(results) -> List[Block]:
    tables = [
        Table(f"Fig 13 ({title})",
              [knob, "storage-rdma_ms", "rmmap_ms", "improvement"],
              [(value, d["storage-rdma"], d["rmmap"], d["improvement"])
               for value, d in sorted(results[knob].items())])
        for title, knob in (("epochs", "epochs"),
                            ("payload (images)", "images"),
                            ("width", "width"))]
    tables.append(Table("Fig 13d: Java WordCount",
                        ["transport", "latency_ms"],
                        results["java"].items()))
    return tables


def _fig14_tables(results) -> List[Block]:
    names = list(next(iter(results.values())))
    return [Table("Fig 14: workflow E2E latency (ms)",
                  ["workflow"] + names,
                  [(wf, *[row[n] for n in names])
                   for wf, row in results.items()])]


def _fig15_tables(results) -> List[Block]:
    return [Table(
        "Fig 15: factor analysis",
        ["variant", "setup_ms", "read_ms", "compute_ms", "e2e_ms"],
        [(name, d["setup_ms"], d["read_ms"], d["compute_ms"], d["e2e_ms"])
         for name, d in results.items()])]


def _fig16a_tables(results) -> List[Block]:
    return [Table(
        "Fig 16a: peak memory (MB)",
        ["entries", "optimal", "rmmap", "messaging", "storage"],
        [(count, d["optimal"], d["rmmap"], d["messaging"],
          d["storage"])
         for count, d in sorted(results.items())])]


def _fig16b_tables(results) -> List[Block]:
    return [Table(
        "Fig 16b: RMMAP vs Naos",
        ["pairs", "naos", "rmmap", "rmmap faster by"],
        [(count, format_ns(d["naos"]), format_ns(d["rmmap"]),
          f"{1.0 - d['rmmap'] / d['naos']:.0%}")
         for count, d in sorted(results.items())])]


def _ablation_tables(results) -> List[Block]:
    def per_variant(title, first, columns, part):
        return Table(title, [first] + columns,
                     [(name, *[d[c] for c in columns])
                      for name, d in results[part].items()])

    return [
        Table("Ablation: static vs dynamic address planning",
              ["outcome", "value"],
              [(key, str(value))
               for key, value in results["planning"].items()]),
        f"rmap over a stale overlapping mapping: {results['conflict']}\n",
        per_variant("Ablation: registration mode", "mode",
                    ["transform_ms", "network_ms"], "registration"),
        Table("Ablation: prefetch threshold on list(int)",
              ["policy", "e2e_ms"], results["prefetch_threshold"].items()),
        per_variant("Ablation: page-table fetch mode (512 MB resident)",
                    "mode", ["setup_ms", "read_ms", "e2e_ms"],
                    "page_table"),
        per_variant("Ablation: messaging compression", "variant",
                    ["e2e_ms", "wire_kb", "transform_ms", "network_ms"],
                    "compression"),
        Table("Ablation: prefetch read batching",
              ["variant", "prefetch_ms"], results["doorbell"].items()),
    ]


def _calibration_tables(results) -> List[Block]:
    return [Table("Section 2.4 calibration", ["metric", "value"],
                  results.items())]


# --- the rows that are not figures -------------------------------------------

def quickstart() -> Dict[str, Any]:
    """WordCount through the run façade under messaging and RMMAP; returns
    each transport's invocation record (seed from ``REPRO_SEED``)."""
    scale = bench_scale(0.05)
    seed = int(os.environ.get("REPRO_SEED", "0") or 0)
    # reuse a --trace-out hub so the trace covers both runs
    hub = obs.current()
    return {name: run("wordcount", transport=name, seed=seed, scale=scale,
                      telemetry=hub if hub is not None else True).record
            for name in ("messaging", "rmmap-prefetch")}


def _quickstart_tables(records) -> List[Block]:
    speedup = (records["messaging"].latency_ns
               / records["rmmap-prefetch"].latency_ns)
    return [
        Table("Quickstart: WordCount, messaging vs RMMAP",
              ["transport", "latency_ms", "transfer_ms", "distinct"],
              [(name, record.latency_ns / 1e6, record.transfer_ns / 1e6,
                record.result["distinct_words"])
               for name, record in records.items()]),
        f"RMMAP end-to-end speedup over messaging: {speedup:.2f}x",
    ]


def _chaos(workload: str) -> Experiment:
    """A ``chaos-<workload>`` row: the Fig-14 workflow under a seeded
    fault schedule (seed via ``REPRO_CHAOS_SEED``, default 0)."""
    return Experiment(
        f"chaos-{workload}",
        f"Fig-14 {workload} workflow under a seeded fault schedule.",
        lambda: run_chaos_workflow(workload, seed=chaos_seed()),
        lambda report: [report.render()])


#: name → row (``repro list`` and ``repro all`` sort by name)
EXPERIMENTS: Dict[str, Experiment] = {row.name: row for row in (
    Experiment("quickstart",
               "WordCount through the run façade: messaging vs RMMAP.",
               quickstart, _quickstart_tables),
    Experiment("fig3",
               "Fig 3: state transfer's share of workflow end-to-end "
               "latency.",
               fig3_transfer_share, _fig3_tables),
    Experiment("fig5",
               "Fig 5: (de)serialization share over a zeroed software "
               "path.",
               fig5_serialization_share, _fig5_tables),
    Experiment("fig11a",
               "Fig 11a: transform/network/reconstruct per data type.",
               fig11a_datatypes, _fig11a_tables),
    Experiment("fig11b",
               "Fig 11b: end-to-end transfer latency vs list(int) size.",
               fig11b_payload_sweep, _fig11b_tables),
    Experiment("fig12",
               "Fig 12: platform throughput and tail latency under load.",
               _each(saturated=fig12_saturated, fixed=fig12_fixed_rate),
               _fig12_tables),
    Experiment("fig13",
               "Fig 13: RMMAP vs storage-RDMA across workload knobs "
               "(+ Java).",
               _each(epochs=fig13a_epochs, images=fig13b_payload,
                     width=fig13c_width, java=fig13d_java),
               _fig13_tables),
    Experiment("fig14",
               "Fig 14: end-to-end latency of the four workflows per "
               "transport.",
               fig14_end_to_end, _fig14_tables),
    Experiment("fig15",
               "Fig 15: factor analysis of RMMAP's latency savings.",
               fig15_factor_analysis, _fig15_tables),
    Experiment("fig16a",
               "Fig 16a: peak memory footprint per transport vs optimal.",
               fig16a_memory, _fig16a_tables),
    Experiment("fig16b",
               "Fig 16b: RMMAP vs Naos on linked-pair payloads.",
               fig16b_naos, _fig16b_tables),
    Experiment("ablations",
               "Design-choice ablations: planning, registration, "
               "prefetch, ...",
               _each(planning=ab.ablation_planning,
                     conflict=ab.ablation_rmap_conflict_demo,
                     registration=ab.ablation_registration_mode,
                     prefetch_threshold=ab.ablation_prefetch_threshold,
                     page_table=ab.ablation_page_table_mode,
                     compression=ab.ablation_compression,
                     doorbell=ab.ablation_doorbell_batching),
               _ablation_tables),
    Experiment("calibration",
               "Section 2.4 calibration: serializer costs vs paper "
               "measurements.",
               section24_calibration, _calibration_tables),
    _chaos("finra"),
    _chaos("ml-training"),
    _chaos("ml-prediction"),
    _chaos("wordcount"),
)}
