"""Benchmark knobs read from the environment: input scale, chaos seed.

Experiments default to scaled-down inputs so the whole harness finishes in
minutes on a laptop; set ``REPRO_BENCH_SCALE=1.0`` (or higher) to approach
the paper's input sizes.  Scaling changes absolute numbers, not the shapes
the reproduction validates (who wins, by roughly what factor, where
crossovers fall).

A malformed or non-positive ``REPRO_BENCH_SCALE`` falls back to the
default with a single warning (previously it fell back silently, so a
typo like ``REPRO_BENCH_SCALE=O.5`` quietly ran every figure at the
default scale).
"""

from __future__ import annotations

import os
import sys
import warnings
from typing import Optional

_warned_values: set = set()


def _warn_once(raw: str, reason: str, default: float) -> None:
    if raw in _warned_values:
        return
    _warned_values.add(raw)
    warnings.warn(
        f"REPRO_BENCH_SCALE={raw!r} is {reason}; "
        f"using default scale {default}", stacklevel=3)


def bench_scale(default: float = 0.2) -> float:
    """Global scale factor from ``REPRO_BENCH_SCALE`` (default 0.2).

    Malformed or non-positive values warn once per distinct value and
    return *default*.
    """
    raw = os.environ.get("REPRO_BENCH_SCALE")
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        _warn_once(raw, "not a number", default)
        return default
    if value <= 0:
        _warn_once(raw, "not positive", default)
        return default
    return value


def scaled(n: int, scale: Optional[float] = None, minimum: int = 1) -> int:
    """Scale an input size, clamped below by *minimum*.

    An explicitly passed non-positive *scale* is a caller bug and raises
    ``ValueError`` (the env-var path degrades gracefully instead).
    """
    if scale is not None and scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    factor = bench_scale() if scale is None else scale
    return max(minimum, int(n * factor))


def chaos_seed() -> int:
    """The chaos experiments' seed from ``REPRO_CHAOS_SEED`` (default 0);
    a non-integer value ends the program with a one-line error."""
    raw = os.environ.get("REPRO_CHAOS_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        sys.exit(f"repro: REPRO_CHAOS_SEED must be an integer, "
                 f"got {raw!r}")
