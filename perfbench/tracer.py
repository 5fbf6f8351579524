"""In-memory span recorder for the traced run.

The benchmark measures layers from outside: :meth:`Tracer.install` wraps
the public callables listed in :data:`METHOD_TARGETS` /
:data:`FUNCTION_TARGETS` (plus every registered transport and every
workflow handler) with a wrapper that records ``(name, start, end,
parent, op)``; :meth:`Tracer.remove` puts the originals back.  Wrappers
exist around a traced pass only — the timed run executes unwrapped code.

A span's *self time* is its duration minus the part of that interval its
child spans cover.  The program is single-threaded and the wrappers nest
properly, so children never overlap and self time is duration minus the
sum of the direct children's durations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: (span name, module, class, method) — patched on the class, so every
#: importer sees the wrapper.
METHOD_TARGETS: List[Tuple[str, str, str, str]] = [
    ("platform.construct", "repro.platform.cluster", "ServerlessPlatform",
     "__init__"),
    ("platform.deploy", "repro.platform.cluster", "ServerlessPlatform",
     "deploy"),
    ("platform.prewarm", "repro.platform.cluster", "ServerlessPlatform",
     "prewarm"),
    ("platform.run_once", "repro.platform.cluster", "ServerlessPlatform",
     "run_once"),
    ("platform.run_closed_loop", "repro.platform.cluster",
     "ServerlessPlatform", "run_closed_loop"),
    ("sim.engine.run", "repro.sim.engine", "Engine", "run"),
    ("transfer.load", "repro.transfer.base", "StateHandle", "load"),
    ("runtime.box", "repro.runtime.heap", "ManagedHeap", "box"),
    ("runtime.load", "repro.runtime.heap", "ManagedHeap", "load"),
    ("runtime.gc", "repro.runtime.heap", "ManagedHeap", "gc"),
    ("runtime.serialize", "repro.runtime.serializer", "Serializer",
     "serialize"),
    ("runtime.deserialize", "repro.runtime.serializer", "Serializer",
     "deserialize"),
    ("runtime.traverse", "repro.runtime.traverse", "ObjectTraverser",
     "traverse"),
    ("kernel.register_mem", "repro.kernel.kernel", "Kernel",
     "register_mem"),
    ("kernel.rmap", "repro.kernel.kernel", "Kernel", "rmap"),
    ("kernel.deregister_mem", "repro.kernel.kernel", "Kernel",
     "deregister_mem"),
    ("kernel.pager.fault", "repro.kernel.remote_pager", "RemoteVMA",
     "handle_fault"),
    ("kernel.pager.prefetch", "repro.kernel.remote_pager", "RemoteVMA",
     "prefetch"),
    ("net.rdma.read", "repro.net.rdma", "QueuePair", "read"),
    ("net.rdma.read_batch", "repro.net.rdma", "QueuePair", "read_batch"),
    ("net.rpc.call", "repro.net.rpc", "RpcEndpoint", "call"),
]

#: (span name, module, function) — other modules bind these by name
#: (``from repro.workloads.data import make_trades``), so every binding
#: in a loaded ``repro`` module is patched, not just the defining one.
FUNCTION_TARGETS: List[Tuple[str, str, str]] = [
    ("workloads.data", "repro.workloads.data", "make_trades"),
    ("workloads.data", "repro.workloads.data", "make_market_data"),
    ("workloads.data", "repro.workloads.data", "make_audit_rules"),
    ("workloads.data", "repro.workloads.data", "make_images"),
    ("workloads.data", "repro.workloads.data", "make_book_text"),
    ("fleet.run", "repro.fleet.runner", "run_fleet"),
]

#: spans recorded by hand (``with tracer.span(...)``), not by a wrapper
MANUAL_SPANS = ("obs.report",)

#: the root span the harness opens around each traced op
OP_SPAN = "op"

Span = Tuple[int, int, int, int, int]  # name id, start, end, parent, op


def span_names() -> List[str]:
    """Every span name the tracer can emit, in report order."""
    names: List[str] = []
    for name, *_ in METHOD_TARGETS:
        names.append(name)
    names += ["transfer.send", "transfer.receive", "transfer.cleanup",
              "workloads.function"]
    for name, *_ in FUNCTION_TARGETS:
        if name not in names:
            names.append(name)
    names += MANUAL_SPANS
    return names


class Tracer:
    """Records spans in memory; wrappers are installed only on request."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.spans: List[Optional[Span]] = []
        self._stack: List[int] = []
        self._op = -1
        self.ops: List[str] = []
        # (owner, attribute, original) in install order
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A wrapper around *fn* that records one span per call."""
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent, self._op)

        return traced

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around a ``with`` block."""
        nid = self._name_id(name)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (nid, start, end, parent, self._op)

    @contextmanager
    def op(self, label: str) -> Iterator[None]:
        """Open the root span of one op; spans inside share its op id."""
        previous = self._op
        self._op = len(self.ops)
        self.ops.append(label)
        try:
            with self.span(OP_SPAN):
                yield
        finally:
            self._op = previous

    # -- wrapper installation ------------------------------------------------

    def _patch(self, owner: Any, attr: str, wrapper: Callable,
               original: Any) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _patch_method(self, owner: type, attr: str, name: str) -> None:
        if any(o is owner and a == attr for o, a, _ in self._patched):
            return
        original = vars(owner)[attr]
        if not inspect.isfunction(original):
            raise TypeError(f"{owner!r}.{attr} is not a plain function")
        self._patch(owner, attr, self.wrap(name, original), original)

    def _patch_function(self, fn: Callable, name: str) -> None:
        """Patch every ``repro`` module attribute bound to *fn* with one
        shared wrapper."""
        if any(fn is w for _o, _a, w in self._installed()):
            return  # two workflows share the handler; wrapped already
        wrapper = self.wrap(name, fn)
        for mod_name, module in sorted(sys.modules.items()):
            if module is None or not (mod_name == "repro"
                                      or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, wrapper, fn)

    def _installed(self):
        """(owner, attribute, wrapper) of every live patch."""
        return [(o, a, vars(o)[a]) for o, a, _ in self._patched]

    def install(self) -> None:
        """Wrap every target.  Idempotent per target; undo with
        :meth:`remove`."""
        from repro.bench.figures_workflow import workflow_configs
        from repro.transfer import get_transport, list_transports

        try:
            for name, mod, cls, attr in METHOD_TARGETS:
                owner = getattr(importlib.import_module(mod), cls)
                self._patch_method(owner, attr, name)
            for tname in list_transports():
                transport_cls = type(get_transport(tname))
                for attr in ("send", "receive", "cleanup"):
                    owner = next(k for k in transport_cls.__mro__
                                 if attr in vars(k))
                    self._patch_method(owner, attr, f"transfer.{attr}")
            for builder, _params in workflow_configs(1.0).values():
                for spec in builder().functions:
                    self._patch_function(spec.handler,
                                         "workloads.function")
            for name, mod, attr in FUNCTION_TARGETS:
                fn = getattr(importlib.import_module(mod), attr)
                self._patch_function(fn, name)
        except BaseException:
            self.remove()
            raise

    def remove(self) -> None:
        """Restore every original, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.remove()

    # -- read-back -------------------------------------------------------------

    def finished(self) -> List[Span]:
        return [s for s in self.spans if s is not None]

    def summary(self) -> Dict[str, Tuple[int, int]]:
        """``{name: (calls, self_ns)}`` over every finished span."""
        return summarize(self.names, self.spans)

    def op_durations(self) -> Dict[int, Tuple[int, int]]:
        """``{op id: (root duration ns, sum of self ns of its spans)}`` —
        the two must agree (self times partition the op)."""
        selfs = self_times(self.spans)
        root_id = self._ids.get(OP_SPAN)
        out: Dict[int, List[int]] = {}
        for span, self_ns in zip(self.spans, selfs):
            if span is None or span[4] < 0:
                continue
            slot = out.setdefault(span[4], [0, 0])
            slot[1] += self_ns
            if span[0] == root_id:
                slot[0] += span[2] - span[1]
        return {op: (dur, total) for op, (dur, total) in out.items()}

    def write(self, path: str, workload: str) -> None:
        """Dump the spans as one JSON document (columnar rows)."""
        doc = {
            "schema": "perfbench-trace/v1",
            "workload": workload,
            "clock": "host perf_counter_ns",
            "names": self.names,
            "ops": self.ops,
            "columns": ["name", "start_ns", "end_ns", "parent", "op"],
            "spans": [list(s) for s in self.finished()],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def self_times(spans: List[Optional[Span]]) -> List[int]:
    """Self time (ns) of each span: duration minus direct children.

    ``parent`` indexes into *spans*; unfinished spans (``None``) count
    as zero and contribute nothing to their parents.
    """
    out = [0 if s is None else s[2] - s[1] for s in spans]
    for span in spans:
        if span is not None and span[3] >= 0 \
                and spans[span[3]] is not None:
            out[span[3]] -= span[2] - span[1]
    return out


def summarize(names: List[str], spans: List[Optional[Span]]
              ) -> Dict[str, Tuple[int, int]]:
    selfs = self_times(spans)
    acc: Dict[int, List[int]] = {}
    for span, self_ns in zip(spans, selfs):
        if span is None:
            continue
        slot = acc.setdefault(span[0], [0, 0])
        slot[0] += 1
        slot[1] += self_ns
    return {names[nid]: (calls, self_ns)
            for nid, (calls, self_ns) in acc.items()}
