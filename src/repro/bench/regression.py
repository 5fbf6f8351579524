"""The benchmark-regression gate over persisted snapshots.

:func:`compare` flattens two :mod:`repro.bench.snapshot` dicts into
dotted numeric leaves (``workloads.wordcount.rmmap-prefetch.e2e_ns``)
and checks each candidate value against the baseline within a relative
tolerance band.  Metric *direction* comes from the name:

* ``*_ns`` / ``*_ms`` / latency-like — higher is a regression, lower is
  an improvement;
* ``*speedup*`` / ``*improvement*`` / ``*throughput*`` — lower is a
  regression, higher is an improvement;
* everything else (counts, shares) — any drift beyond tolerance fails,
  both directions (the simulator is deterministic, so a changed span
  count is a behavioural change someone should look at).

Tolerances are relative; the default band can be overridden per metric
prefix (longest prefix wins), e.g. ``{"derived.": 0.05}``.  Snapshots
taken at different seed/scale/schema are refused rather than compared.
Improvements never fail the gate — they are reported so the baseline can
be re-pinned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: Relative drift allowed per metric unless a prefix override matches.
DEFAULT_TOLERANCE = 0.01

#: Keys never compared: the host stamp, and ``schema_version``, which
#: :func:`compare` checks up front instead.
SKIPPED_PREFIXES = ("environment.", "schema_version")

_HIGHER_IS_WORSE = ("_ns", "_ms", ".latency", "latency_")
_LOWER_IS_WORSE = ("speedup", "improvement", "throughput", "tput",
                   "_per_sec")


def metric_direction(name: str) -> str:
    """``"up"`` = higher is a regression, ``"down"`` = lower is a
    regression, ``"both"`` = any drift is."""
    leaf = name.rsplit(".", 1)[-1]
    if any(tok in leaf for tok in _LOWER_IS_WORSE):
        return "down"
    if leaf.endswith(_HIGHER_IS_WORSE) or "latency" in leaf:
        return "up"
    return "both"


def flatten(tree: Any, prefix: str = "") -> Dict[str, float]:
    """Dotted numeric leaves of a snapshot (bools and strings dropped)."""
    out: Dict[str, float] = {}
    if isinstance(tree, dict):
        for key in sorted(tree):
            out.update(flatten(tree[key], f"{prefix}{key}."))
    elif isinstance(tree, list):
        for i, item in enumerate(tree):
            out.update(flatten(item, f"{prefix}{i}."))
    elif isinstance(tree, bool) or tree is None:
        pass
    elif isinstance(tree, (int, float)):
        out[prefix[:-1]] = float(tree)
    return out


@dataclass
class Finding:
    """One metric's verdict."""

    metric: str
    baseline: Optional[float]
    candidate: Optional[float]
    rel_change: float
    tolerance: float
    direction: str
    kind: str  # "regression" | "improvement" | "missing" | "new"

    def to_dict(self) -> Dict[str, Any]:
        return {"metric": self.metric, "baseline": self.baseline,
                "candidate": self.candidate,
                "rel_change": round(self.rel_change, 6),
                "tolerance": self.tolerance,
                "direction": self.direction, "kind": self.kind}

    def render(self) -> str:
        if self.kind == "missing":
            return f"  MISSING      {self.metric} (baseline " \
                   f"{self.baseline:g}, gone from candidate)"
        if self.kind == "new":
            return f"  new          {self.metric} = {self.candidate:g} " \
                   f"(not in baseline)"
        arrow = "+" if self.rel_change >= 0 else ""
        return (f"  {self.kind.upper():<12} {self.metric}: "
                f"{self.baseline:g} -> {self.candidate:g} "
                f"({arrow}{self.rel_change:.2%}, band "
                f"{self.tolerance:.2%}, {self.direction})")


@dataclass
class RegressionReport:
    """The gate's verdict over one snapshot pair."""

    compared: int = 0
    failures: List[Finding] = field(default_factory=list)
    improvements: List[Finding] = field(default_factory=list)
    new_metrics: List[Finding] = field(default_factory=list)
    #: Root-cause report from :mod:`repro.obs.diff`, attached by
    #: :func:`check_paths` when the gate fails (the gate says *what*
    #: drifted; the diff says *where the nanoseconds moved*).
    diff: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> Dict[str, Any]:
        """Machine-readable gate verdict (``bench-check --format json``)."""
        return {
            "ok": self.ok,
            "compared": self.compared,
            "failures": [f.to_dict() for f in self.failures],
            "improvements": [f.to_dict() for f in self.improvements],
            "new_metrics": [f.to_dict() for f in self.new_metrics],
            "diff": self.diff,
        }

    def render(self) -> str:
        from repro.obs.diff import render_diff

        lines = [f"benchmark regression gate: {self.compared} metrics "
                 f"compared, {len(self.failures)} regressions, "
                 f"{len(self.improvements)} improvements, "
                 f"{len(self.new_metrics)} new"]
        for finding in self.failures:
            lines.append(finding.render())
        for finding in self.improvements:
            lines.append(finding.render())
        for finding in self.new_metrics:
            lines.append(finding.render())
        if self.diff is not None:
            lines.append("")
            lines.append(render_diff(self.diff))
        lines.append("PASS" if self.ok else "FAIL")
        return "\n".join(lines)


def _tolerance_for(metric: str, default: float,
                   overrides: Optional[Dict[str, float]]) -> float:
    if not overrides:
        return default
    best: Optional[Tuple[int, float]] = None
    for prefix, band in overrides.items():
        if metric.startswith(prefix):
            if best is None or len(prefix) > best[0]:
                best = (len(prefix), band)
    return best[1] if best is not None else default


def compare(baseline: Dict[str, Any], candidate: Dict[str, Any],
            default_tolerance: float = DEFAULT_TOLERANCE,
            overrides: Optional[Dict[str, float]] = None
            ) -> RegressionReport:
    """Diff *candidate* against *baseline* within tolerance bands.

    Raises ``ValueError`` when the snapshots were taken at different
    operating points (seed / scale / schema) — such numbers are not
    comparable and the gate refuses to guess.
    """
    for key in ("schema_version", "seed", "scale"):
        if baseline.get(key) != candidate.get(key):
            raise ValueError(
                f"snapshots disagree on {key}: baseline "
                f"{baseline.get(key)!r} vs candidate "
                f"{candidate.get(key)!r}; re-run at the baseline's "
                f"operating point")

    base = flatten(baseline)
    cand = flatten(candidate)
    report = RegressionReport()
    for metric in sorted(set(base) | set(cand)):
        if any(metric.startswith(p) for p in SKIPPED_PREFIXES):
            continue
        b, c = base.get(metric), cand.get(metric)
        if b is None:
            report.new_metrics.append(Finding(
                metric, None, c, 0.0, 0.0, "n/a", "new"))
            continue
        if c is None:
            report.failures.append(Finding(
                metric, b, None, 0.0, 0.0, "n/a", "missing"))
            continue
        report.compared += 1
        tolerance = _tolerance_for(metric, default_tolerance, overrides)
        direction = metric_direction(metric)
        rel = (c - b) / b if b else (0.0 if c == b else float("inf"))
        if abs(rel) <= tolerance:
            continue
        worse = ((direction == "up" and rel > 0)
                 or (direction == "down" and rel < 0)
                 or direction == "both")
        finding = Finding(metric, b, c, rel, tolerance, direction,
                          "regression" if worse else "improvement")
        (report.failures if worse else report.improvements).append(finding)
    return report


def check_paths(baseline_path: str, candidate_path: str,
                default_tolerance: float = DEFAULT_TOLERANCE,
                overrides: Optional[Dict[str, float]] = None
                ) -> RegressionReport:
    """Load two snapshot files and compare them.

    When the gate fails, the differential root-cause report (:func:`repro.obs.diff.diff_snapshots`) is
    attached on ``report.diff`` so the failure explains itself.
    """
    from repro.bench.snapshot import load_snapshot
    baseline = load_snapshot(baseline_path)
    candidate = load_snapshot(candidate_path)
    report = compare(baseline, candidate,
                     default_tolerance=default_tolerance,
                     overrides=overrides)
    if not report.ok:
        from repro.obs.diff import diff_snapshots
        report.diff = diff_snapshots(baseline, candidate)
    return report
