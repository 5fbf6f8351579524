"""Metrics and reporting for workflow experiments."""

from repro.analysis.metrics import (cdf_points, percentile,
                                    throughput_timeline, LatencyStats,
                                    summarize_invocations)
from repro.analysis.report import Table, ascii_bar_chart, format_ns
