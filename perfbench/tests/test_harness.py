"""Failure accounting of perfbench/harness.py."""

from perfbench import harness
from perfbench.workloads import Workload


class BrokenSetup(Workload):
    name = "broken"

    def setup(self):
        raise MemoryError("no room for the inputs")


def test_a_set_up_that_raises_is_a_failed_op_and_still_reports():
    for run in (lambda w: harness.timed_run(w, 0.1, 0.0),
                lambda w: harness.traced_run(w, 0.0)):
        result = run(BrokenSetup(seed=7, quick=True))
        assert (result.attempted, result.failed) == (1, 1)
        assert result.metrics["fail_ratio"] == 1.0
        assert result.metrics["setup_s"] > 0
        assert result.metrics["host_peak_rss_mb"] > 0
        assert result.notes == ["set-up raised"]
