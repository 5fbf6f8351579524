"""The benchmark's declared shape: ``BENCHMARK.json`` and naming rules."""

from __future__ import annotations

import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: seed used when none is given; any integer works
DEFAULT_SEED = 20240422


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def clock_of(name: str) -> str:
    """Which clock a metric uses: ``host`` (what the simulator costs to
    run; noisy), ``sim`` (what the modelled datacenter would take; a
    pure function of code and seed) or ``exact`` (a count, or a ratio of
    counts; repeats exactly too)."""
    if "sim_" in name or name == "paper_err_pct":
        return "sim"
    if (name.startswith("host_") or name == "setup_s"
            or ".probe." in name
            or name.endswith((".self_s", "overhead_ratio", "per_host_s"))):
        return "host"
    return "exact"
