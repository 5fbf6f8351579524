"""Tiny-scale smoke tests for the experiment table and its functions.

The real assertions live in ``benchmarks/``; these only guard the
experiment plumbing (every row of ``EXPERIMENTS`` described and listed,
the cheap rows run and rendered, shapes of returned structures) at
minimal input sizes so ``pytest tests/`` stays fast.
"""

import pytest

from repro.analysis.report import Table
from repro.bench.experiments import EXPERIMENTS

#: rows that finish in under ~2 s each at scale 0.02
FAST_ROWS = ("quickstart", "fig11a", "fig11b", "fig15", "fig16a", "fig16b",
             "ablations", "calibration")


@pytest.fixture(autouse=True)
def tiny_scale(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.02")


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_every_row_is_described(name):
    row = EXPERIMENTS[name]
    assert row.name == name
    assert row.description.strip()
    assert callable(row.run) and callable(row.tables)


def test_list_prints_exactly_the_table_plus_commands(capsys):
    from repro.cli import _COMMANDS, main

    assert main(["list"]) == 0
    listed = [line.split()[0]
              for line in capsys.readouterr().out.splitlines()]
    assert listed == sorted(EXPERIMENTS) + sorted(_COMMANDS)


@pytest.mark.parametrize("name", FAST_ROWS)
def test_fast_rows_run_and_render(name, capsys):
    row = EXPERIMENTS[name]
    results = row.run()
    blocks = row.tables(results)
    assert blocks
    for block in blocks:
        assert isinstance(block, str) or (isinstance(block, Table)
                                          and block.rows)
    row.show(results)
    out = capsys.readouterr().out
    for block in blocks:
        if isinstance(block, Table):
            assert f"== {block.title} ==" in out


def test_ablations_row_covers_all_seven():
    from repro.bench import ablations

    seven = {name for name in vars(ablations)
             if name.startswith("ablation_")}
    assert len(seven) == 7
    results = EXPERIMENTS["ablations"].run()
    assert len(results) == 7
    assert results["conflict"].startswith("fallback-to-messaging: ")


def test_fig11b_structure():
    from repro.bench.figures_micro import fig11b_payload_sweep
    results = fig11b_payload_sweep([64, 512])
    assert set(results) == {64, 512}
    for row in results.values():
        assert set(row) == {"messaging", "storage", "storage-rdma",
                            "rmmap", "rmmap-prefetch"}
        assert all(v > 0 for v in row.values())


def test_fig16b_structure():
    from repro.bench.figures_micro import fig16b_naos
    results = fig16b_naos([400])
    assert set(results[400]) == {"naos", "rmmap"}


def test_fig15_structure():
    from repro.bench.figures_platform import fig15_factor_analysis
    results = fig15_factor_analysis(feature_mb=0.25)
    assert set(results) == {"local (optimal)", "rmmap-prefetch", "rmmap",
                            "rmmap-rpc"}
    for d in results.values():
        assert d["e2e_ms"] >= d["compute_ms"]


def test_fig16a_structure():
    from repro.bench.figures_platform import fig16a_memory
    results = fig16a_memory([2_000])
    row = results[2_000]
    assert set(row) == {"optimal", "messaging", "storage", "rmmap"}
    assert all(v > 0 for v in row.values())


def test_fig11a_values_cover_all_types():
    from repro.bench.figures_micro import _TYPE_LIBS, fig11a_values
    values = fig11a_values(scale=0.01)
    assert set(values) == set(_TYPE_LIBS)


def test_standard_transports_construct():
    from repro.bench.microbench import STANDARD_TRANSPORTS, measure_each
    out = measure_each(STANDARD_TRANSPORTS, [1, 2, 3])
    assert list(out) == list(STANDARD_TRANSPORTS)
    for name, result in out.items():
        assert result.transport == name
        assert result.value == [1, 2, 3]


def test_workflow_configs_structure():
    from repro.bench.figures_workflow import workflow_configs
    configs = workflow_configs(scale=0.02)
    assert set(configs) == {"finra", "ml-training", "ml-prediction",
                            "wordcount"}
    for _builder, params in configs.values():
        assert isinstance(params, dict)


def test_ablation_smoke():
    from repro.bench.ablations import (ablation_doorbell_batching,
                                       ablation_page_table_mode)
    db = ablation_doorbell_batching(n_pages=64)
    assert db["doorbell"] < db["serial"]
    pt = ablation_page_table_mode(resident_mb=64)
    assert set(pt) == {"eager", "ondemand"}


def test_synthetic_model_size():
    from repro.bench.figures_micro import synthetic_model
    model = synthetic_model(512 * 1024, n_trees=8)
    assert 0.5 * 512 * 1024 <= model.nbytes() <= 2 * 512 * 1024
