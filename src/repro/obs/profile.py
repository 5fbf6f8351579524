"""Causal profiling over the telemetry hub's span tree.

The coordinator threads ``trace_id`` / ``parent_id`` through every span it
(or a substrate layer, via deferred ops) records, so one workflow
invocation's simulated nanoseconds form a single rooted tree:

    workflow -> invocation -> function instance -> phase -> transport op
                                                         -> kernel syscall
                                                         -> net verb / RPC

This module walks that tree three ways:

* :func:`critical_path` extracts the end-to-end critical path as a list of
  segments that *partition* the root interval exactly — their durations sum
  to the run's end-to-end time by construction.  Within a span, time not
  covered by any child is the span's *self* time; time covered by a child
  belongs to (the deepest such) child.
* :func:`attribute` rolls up self vs. wait time per ``(machine, layer,
  name)`` over the whole tree (wait = time blocked on children: transfers
  waiting on verbs, functions waiting on faults).
* :func:`folded_stacks` emits the tree as folded stacks
  (``frame;frame;frame value`` — the format ``inferno``/``flamegraph.pl``
  and speedscope ingest), one frame per ``layer/name``, weighted by self
  time in nanoseconds.

Everything here is a pure function of recorded spans; instance indices
(``#3`` suffixes) are normalized away for aggregation so parallel instances
of one function fold together.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.telemetry import Telemetry

#: ``name#3`` / ``name#3~retry`` instance suffixes fold into ``name``.
_INSTANCE_SUFFIX = re.compile(r"#\d+(~retry)?$")


def normalize_name(name: str) -> str:
    """Strip per-instance suffixes so parallel instances aggregate."""
    return _INSTANCE_SUFFIX.sub("", name)


@dataclass
class SpanNode:
    """One span in the causal tree."""

    machine: str
    layer: str
    name: str
    start_ns: int
    end_ns: int
    span_id: int
    parent_id: Optional[int]
    trace_id: Optional[str]
    attributes: Dict[str, Any] = field(default_factory=dict)
    children: List["SpanNode"] = field(default_factory=list)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def frame(self) -> str:
        """The flamegraph frame label for this span."""
        return f"{self.layer}/{normalize_name(self.name)}"

    def location(self) -> Tuple[str, str, str]:
        return (self.machine, self.layer, normalize_name(self.name))

    def walk(self):
        """Yield this node and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()


def trace_ids(hub: Telemetry) -> List[str]:
    """Distinct trace ids recorded by *hub*, sorted."""
    return sorted({s.get("trace_id") for s in hub.spans
                   if s.get("trace_id") is not None})


def build_span_tree(hub: Telemetry,
                    trace_id: Optional[str] = None) -> SpanNode:
    """The rooted span tree of one trace.

    With a single recorded trace, ``trace_id`` may be omitted.  Spans
    whose parent is missing become roots; the primary root is the longest
    (earliest on ties) and any stray root fully inside it is adopted as a
    child, so prewarm or concurrent-invocation spans never corrupt the
    measured tree — they carry different trace ids and are filtered out.
    """
    ids = trace_ids(hub)
    if trace_id is None:
        if not ids:
            raise ValueError("no causal spans recorded; run with telemetry "
                             "installed (repro.api.run(telemetry=True))")
        if len(ids) > 1:
            raise ValueError(f"multiple traces recorded ({ids}); "
                             f"pass trace_id")
        trace_id = ids[0]
    nodes: Dict[int, SpanNode] = {}
    for s in hub.spans:
        if s.get("trace_id") != trace_id:
            continue
        node = SpanNode(machine=s["machine"], layer=s["layer"],
                        name=s["name"], start_ns=s["start_ns"],
                        end_ns=s["end_ns"], span_id=s["span_id"],
                        parent_id=s.get("parent_id"), trace_id=trace_id,
                        attributes=dict(s.get("attributes") or {}))
        nodes[node.span_id] = node
    roots: List[SpanNode] = []
    for node in nodes.values():
        parent = nodes.get(node.parent_id)
        if parent is not None and parent is not node:
            parent.children.append(node)
        else:
            roots.append(node)
    if not roots:
        raise ValueError(f"trace {trace_id!r} has no spans")
    roots.sort(key=lambda r: (-(r.end_ns - r.start_ns), r.start_ns,
                              r.span_id))
    primary = roots[0]
    for stray in roots[1:]:
        if primary.start_ns <= stray.start_ns \
                and stray.end_ns <= primary.end_ns:
            primary.children.append(stray)
    for node in nodes.values():
        node.children.sort(key=lambda c: (c.start_ns, c.end_ns, c.span_id))
    return primary


# -- critical path -------------------------------------------------------------


@dataclass
class PathSegment:
    """One critical-path segment: *node* was the deepest span covering
    ``[start_ns, end_ns)``."""

    node: SpanNode
    start_ns: int
    end_ns: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


def critical_path(root: SpanNode) -> List[PathSegment]:
    """The end-to-end critical path as segments partitioning the root.

    Walks backward from the root's end: within ``[lo, hi]`` the child
    ending latest (before the cursor) carries the path; the gap between
    its end and the cursor is the parent's own time; recurse into the
    child and continue from its start.  Segments are returned in time
    order and always sum exactly to the root's duration.
    """
    segments: List[PathSegment] = []

    def walk(node: SpanNode, lo: int, hi: int) -> None:
        cursor = hi
        while cursor > lo:
            best = None
            best_key = None
            for child in node.children:
                if child.start_ns >= cursor or child.end_ns <= lo:
                    continue
                key = (min(child.end_ns, cursor), child.start_ns,
                       child.span_id)
                if best is None or key > best_key:
                    best, best_key = child, key
            if best is None:
                segments.append(PathSegment(node, lo, cursor))
                return
            child_end = min(best.end_ns, cursor)
            if child_end < cursor:
                segments.append(PathSegment(node, child_end, cursor))
            child_lo = max(best.start_ns, lo)
            walk(best, child_lo, child_end)
            cursor = child_lo

    walk(root, root.start_ns, root.end_ns)
    segments.reverse()
    return segments


# -- attribution ---------------------------------------------------------------


def _union_ns(intervals: List[Tuple[int, int]]) -> int:
    """Total length covered by the (possibly overlapping) intervals."""
    total = 0
    hi = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if hi is None or start >= hi:
            total += end - start
            hi = end
        elif end > hi:
            total += end - hi
            hi = end
    return total


def self_time_ns(node: SpanNode) -> int:
    """*node*'s duration minus the union of its children's intervals."""
    busy = _union_ns([(max(c.start_ns, node.start_ns),
                       min(c.end_ns, node.end_ns))
                      for c in node.children])
    return max(0, node.duration_ns - busy)


def attribute(root: SpanNode) -> List[Dict[str, Any]]:
    """Self vs. wait time per ``(machine, layer, name)`` over the tree.

    ``self_ns`` is time the span spent with no child running (its own
    work); ``wait_ns`` is time covered by children (blocked on them).
    Rows are ranked by self time.
    """
    acc: Dict[Tuple[str, str, str], Dict[str, int]] = {}
    for node in root.walk():
        self_ns = self_time_ns(node)
        slot = acc.setdefault(node.location(),
                              {"self_ns": 0, "wait_ns": 0,
                               "total_ns": 0, "count": 0})
        slot["self_ns"] += self_ns
        slot["wait_ns"] += node.duration_ns - self_ns
        slot["total_ns"] += node.duration_ns
        slot["count"] += 1
    rows = [{"machine": m, "layer": lyr, "name": n, **slot}
            for (m, lyr, n), slot in acc.items()]
    rows.sort(key=lambda r: (-r["self_ns"], r["machine"], r["layer"],
                             r["name"]))
    return rows


#: A root-to-node path of normalized ``(machine, layer, name)`` locations.
LocationPath = Tuple[Tuple[str, str, str], ...]


def path_table(root: SpanNode) -> Dict[LocationPath, Dict[str, int]]:
    """Aggregate self/wait/total time per root-to-node *location path*.

    Parallel instances of one function normalize onto the same path, so
    two runs of the same workload produce alignable tables even when
    instance counts differ — this is the join key the run-differ
    (:mod:`repro.obs.diff`) uses.
    """
    acc: Dict[LocationPath, Dict[str, int]] = {}

    def visit(node: SpanNode, prefix: LocationPath) -> None:
        path = prefix + (node.location(),)
        self_ns = self_time_ns(node)
        slot = acc.setdefault(path, {"self_ns": 0, "wait_ns": 0,
                                     "total_ns": 0, "count": 0})
        slot["self_ns"] += self_ns
        slot["wait_ns"] += node.duration_ns - self_ns
        slot["total_ns"] += node.duration_ns
        slot["count"] += 1
        for child in node.children:
            visit(child, path)

    visit(root, ())
    return acc


# -- flamegraph ----------------------------------------------------------------


def folded_stacks(root: SpanNode) -> str:
    """The tree as folded stacks (``a;b;c value`` lines, value = self ns).

    Loadable by ``inferno-flamegraph``, ``flamegraph.pl`` and speedscope.
    Sibling instances of one function fold into the same frame; lines are
    sorted, so same-seed runs produce byte-identical output.
    """
    acc: Dict[Tuple[str, ...], int] = {}

    def visit(node: SpanNode, prefix: Tuple[str, ...]) -> None:
        stack = prefix + (node.frame,)
        self_ns = self_time_ns(node)
        if self_ns > 0:
            acc[stack] = acc.get(stack, 0) + self_ns
        for child in node.children:
            visit(child, stack)

    visit(root, ())
    lines = [f"{';'.join(stack)} {value}"
             for stack, value in sorted(acc.items())]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_folded(text: str) -> Dict[Tuple[str, ...], int]:
    """Parse folded stacks back into ``{stack_tuple: value}`` (testing and
    tooling aid; also validates the format round-trips)."""
    out: Dict[Tuple[str, ...], int] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        stack, _, value = line.rpartition(" ")
        if not stack or not value.isdigit():
            raise ValueError(f"malformed folded line: {line!r}")
        key = tuple(stack.split(";"))
        out[key] = out.get(key, 0) + int(value)
    return out


# -- the ranked report ---------------------------------------------------------

REPORT_SCHEMA_VERSION = 1


def critical_path_report(hub: Telemetry,
                         trace_id: Optional[str] = None) -> Dict[str, Any]:
    """A JSON-ready bottleneck report for one trace.

    ``path`` lists the critical-path segments in time order (their
    ``duration_ns`` sum to ``total_ns`` exactly); ``bottlenecks`` ranks
    critical-path time by ``(machine, layer, name)``; ``attribution``
    ranks whole-tree self/wait time the same way.
    """
    root = build_span_tree(hub, trace_id=trace_id)
    segments = critical_path(root)
    by_loc: Dict[Tuple[str, str, str], int] = {}
    for seg in segments:
        loc = seg.node.location()
        by_loc[loc] = by_loc.get(loc, 0) + seg.duration_ns
    total = root.duration_ns
    bottlenecks = [
        {"machine": m, "layer": lyr, "name": n, "path_ns": ns,
         "share": round(ns / total, 6) if total else 0.0}
        for (m, lyr, n), ns in sorted(by_loc.items(),
                                      key=lambda kv: (-kv[1], kv[0]))]
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "trace_id": root.trace_id,
        "total_ns": total,
        "root": {"machine": root.machine, "layer": root.layer,
                 "name": root.name, "start_ns": root.start_ns,
                 "end_ns": root.end_ns},
        "layers": sorted({n.layer for n in root.walk()}),
        "span_count": sum(1 for _ in root.walk()),
        "path": [
            {"machine": seg.node.machine, "layer": seg.node.layer,
             "name": seg.node.name, "start_ns": seg.start_ns,
             "end_ns": seg.end_ns, "duration_ns": seg.duration_ns}
            for seg in segments],
        "bottlenecks": bottlenecks,
        "attribution": attribute(root),
    }


def render_report(report: Dict[str, Any], top: int = 12) -> str:
    """The report as a ranked text table."""
    total = max(1, report["total_ns"])
    lines = [
        f"critical path of {report['trace_id']} — "
        f"{report['total_ns'] / 1e6:.3f} ms end-to-end, "
        f"{len(report['path'])} segments over "
        f"{len(report['layers'])} layers "
        f"({', '.join(report['layers'])})",
        "",
        f"{'share':>7}  {'path ms':>10}  location",
    ]
    for row in report["bottlenecks"][:top]:
        lines.append(f"{row['path_ns'] / total:>6.1%}  "
                     f"{row['path_ns'] / 1e6:>10.3f}  "
                     f"{row['machine']}:{row['layer']}/{row['name']}")
    rest = report["bottlenecks"][top:]
    if rest:
        rest_ns = sum(r["path_ns"] for r in rest)
        lines.append(f"{rest_ns / total:>6.1%}  {rest_ns / 1e6:>10.3f}  "
                     f"({len(rest)} more)")
    return "\n".join(lines)


def render_gantt(hub: Telemetry, trace_id: Optional[str] = None,
                 width: int = 60) -> str:
    """A text Gantt chart of the coordinator's invocation
    (``platform/<wf>#<id>``) and function-instance (``platform/<fn>#<i>``)
    spans, ordered by start (ties in span-id order, i.e. the order the
    coordinator opened them); *trace_id* narrows it to one invocation."""
    spans = sorted((s for s in hub.spans
                    if s["layer"] == "platform"
                    and _INSTANCE_SUFFIX.search(s["name"])
                    and trace_id in (None, s.get("trace_id"))),
                   key=lambda s: (s["start_ns"], s["span_id"]))
    if not spans:
        return "(no spans)"
    t0 = spans[0]["start_ns"]
    total = max(1, max(s["end_ns"] for s in spans) - t0)
    label_w = max(len(s["name"]) for s in spans)
    lines = []
    for span in spans:
        lo = int(width * (span["start_ns"] - t0) / total)
        hi = max(lo + 1, int(width * (span["end_ns"] - t0) / total))
        bar = " " * lo + "#" * (hi - lo)
        dur_ms = (span["end_ns"] - span["start_ns"]) / 1e6
        lines.append(f"{span['name'].ljust(label_w)} |{bar.ljust(width)}| "
                     f"{dur_ms:8.3f} ms")
    return "\n".join(lines)
