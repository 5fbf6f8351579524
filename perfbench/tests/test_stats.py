"""The percentile rule: a median plus the highest percentile that still
has at least ten samples beyond it."""

import pytest

from perfbench import stats


@pytest.mark.parametrize("n, q, allowed", [
    (100, 0.90, True),     # exactly ten samples beyond p90
    (99, 0.90, False),
    (128, 0.90, True),     # platform-load pools 2 x 64 invocations
    (64, 0.90, False),     # one transport alone cannot carry a p90
    (1000, 0.99, True),
    (999, 0.99, False),
    (40, 0.50, True),
])
def test_ten_samples_beyond(n, q, allowed):
    assert stats.percentile_allowed(n, q) is allowed


def test_latency_summary_reports_only_supported_percentiles():
    few = stats.latency_summary(list(range(1, 33)))
    assert set(few) == {"n", "p50"}
    many = stats.latency_summary(list(range(1, 129)))
    assert set(many) == {"n", "p50", "p90"}     # highest supported: p90
    assert set(stats.latency_summary(range(30_000))) \
        == {"n", "p50", "p90", "p99"}
    assert many["n"] == 128
    assert many["p50"] == 64.5
    assert many["p90"] == 116      # nearest rank: ceil(0.9 * 128)


def test_percentile_is_nearest_rank():
    values = [5, 1, 4, 2, 3]
    assert stats.percentile(values, 0.5) == 3
    assert stats.percentile(values, 1.0) == 5
    assert stats.percentile(values, 0.01) == 1
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)


def test_iqr_share_matches_the_contract_definition():
    import statistics
    values = [10.0, 10.2, 9.9, 10.1, 10.4, 9.8, 10.0, 10.3, 9.7, 10.1]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.iqr_share(values) == pytest.approx(
        (q3 - q1) / statistics.median(values))
