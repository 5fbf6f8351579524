"""Benchmark harnesses shared by the CLI, ``benchmarks/`` and ``examples/``.

:mod:`repro.bench.experiments` holds the one table of CLI experiments
(:data:`~repro.bench.experiments.EXPERIMENTS`: name, description, run,
tables).  The figure functions its rows run live in:

* :mod:`repro.bench.figures_micro` — Fig 11a/11b/16b, Section 2.4;
* :mod:`repro.bench.figures_workflow` — Fig 3/5/13/14;
* :mod:`repro.bench.figures_platform` — Fig 12/15/16a;
* :mod:`repro.bench.ablations` — design-choice ablations.

Benchmark persistence lives next to the harnesses:

* :mod:`repro.bench.snapshot` — ``python -m repro bench`` writes
  schema-versioned ``BENCH_<n>.json`` snapshots at a fixed seed/scale;
* :mod:`repro.bench.regression` — tolerance-band comparator that fails
  CI when a candidate snapshot regresses the committed baseline.
"""
