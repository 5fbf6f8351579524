"""Shared helpers for the per-figure benchmark harnesses.

Every benchmark regenerates one table/figure of the paper: it runs one row
of ``repro.bench.experiments.EXPERIMENTS`` once under
``benchmark.pedantic`` (the timing pytest-benchmark reports is host wall
time; the *results* are simulated metrics), prints the row's tables —
the ones ``python -m repro <name>`` prints — and asserts the paper's
qualitative claims — who wins, by roughly what factor, where crossovers
fall.

Scale with ``REPRO_BENCH_SCALE`` (default 0.2; 1.0 approaches paper-size
inputs).
"""

from __future__ import annotations

import pytest

from repro.bench.experiments import EXPERIMENTS


def run_once(benchmark, fn, *args, **kwargs):
    """Run *fn* exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)


def run_row(benchmark, name):
    """Run the ``EXPERIMENTS`` row *name* once, print what
    ``python -m repro <name>`` prints, and return its results."""
    row = EXPERIMENTS[name]
    results = run_once(benchmark, row.run)
    row.show(results)
    return results


@pytest.fixture(autouse=True)
def _newline_before_output(capsys):
    """Keep printed tables readable amid pytest progress dots."""
    print()
    yield
