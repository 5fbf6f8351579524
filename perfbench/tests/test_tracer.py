"""Span self-time arithmetic, parent links and wrapper removal."""

import time

from perfbench.tracer import (METHOD_TARGETS, Tracer, self_times,
                              span_names, summarize)


def test_self_time_is_duration_minus_direct_children():
    #        name start end parent op
    spans = [(0, 0, 100, -1, 0),    # root: children cover 30 + 20
             (1, 10, 40, 0, 0),     # child a: its own child covers 5
             (2, 15, 20, 1, 0),     # grandchild
             (1, 50, 70, 0, 0)]     # child b
    assert self_times(spans) == [50, 25, 5, 20]
    # self times partition the root interval
    assert sum(self_times(spans)) == 100


def test_unfinished_spans_count_for_nothing():
    spans = [(0, 0, 100, -1, 0), None, (1, 10, 30, 0, 0)]
    assert self_times(spans) == [80, 0, 20]


def test_summarize_groups_by_name():
    names = ["outer", "inner"]
    spans = [(0, 0, 100, -1, 0), (1, 10, 40, 0, 0), (1, 50, 70, 0, 0)]
    assert summarize(names, spans) == {"outer": (1, 50), "inner": (2, 50)}


def test_wrap_records_parent_links_and_op_ids():
    tracer = Tracer()

    def leaf():
        time.sleep(0.001)

    leaf_t = tracer.wrap("leaf", leaf)

    def trunk():
        leaf_t()
        leaf_t()

    trunk_t = tracer.wrap("trunk", trunk)
    with tracer.op("cell-a"):
        trunk_t()
    spans = tracer.finished()
    by_name = {}
    for index, span in enumerate(spans):
        by_name.setdefault(tracer.names[span[0]], []).append((index, span))
    (op_index, op_span), = by_name["op"]
    (trunk_index, trunk_span), = by_name["trunk"]
    assert trunk_span[3] == op_index
    assert [s[3] for _i, s in by_name["leaf"]] == [trunk_index] * 2
    assert {s[4] for s in spans} == {0}
    assert tracer.ops == ["cell-a"]
    # the op's spans' self times sum to its traced duration exactly
    (duration, self_sum), = tracer.op_durations().values()
    assert duration == self_sum == op_span[2] - op_span[1]
    summary = tracer.summary()
    assert summary["leaf"][0] == 2
    assert summary["leaf"][1] >= 2_000_000     # two 1 ms sleeps
    assert summary["trunk"][1] < summary["leaf"][1]


def test_a_raising_call_still_closes_its_span():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    wrapped = tracer.wrap("boom", boom)
    try:
        wrapped()
    except KeyError:
        pass
    assert len(tracer.finished()) == 1
    assert tracer._stack == []


def test_install_wraps_and_remove_restores_every_target():
    import importlib

    from repro.workloads import data, finra

    def current():
        out = {}
        for _name, mod, cls, attr in METHOD_TARGETS:
            owner = getattr(importlib.import_module(mod), cls)
            out[(mod, cls, attr)] = vars(owner)[attr]
        out["data.make_trades"] = data.make_trades
        out["finra.make_trades"] = finra.make_trades
        out["finra.handler"] = finra.fetch_private_data
        return out

    before = current()
    tracer = Tracer()
    with tracer.installed():
        during = current()
        assert all(during[key] is not before[key] for key in before)
        # a by-name import in another module sees the same wrapper
        assert during["finra.make_trades"] is during["data.make_trades"]
        data.make_trades(10, seed=1)
    assert current() == before
    assert all(current()[key] is before[key] for key in before)
    recorded = len(tracer.finished())
    assert recorded == 1
    data.make_trades(10, seed=1)                # unwrapped again
    assert len(tracer.finished()) == recorded


def test_traced_workflow_fires_the_expected_layers():
    from repro.api import run

    tracer = Tracer()
    with tracer.installed():
        with tracer.op("wordcount"):
            run("wordcount", transport="rmmap-prefetch", seed=0,
                scale=0.05, params={"seed": 3, "n_bytes": 16 << 10})
    summary = tracer.summary()
    for name in ("platform.construct", "platform.run_once",
                 "sim.engine.run", "transfer.send", "transfer.receive",
                 "transfer.load", "runtime.box", "runtime.load",
                 "runtime.traverse", "kernel.register_mem", "kernel.rmap",
                 "kernel.pager.prefetch", "net.rdma.read_batch",
                 "net.rpc.call", "workloads.function", "workloads.data"):
        assert summary[name][0] > 0, name
    # the serializer does no work on the rmap path
    assert "runtime.serialize" not in summary
    assert "runtime.deserialize" not in summary
    assert set(summary) - {"op"} <= set(span_names())
    for duration, self_sum in tracer.op_durations().values():
        assert abs(duration - self_sum) <= 0.01 * duration
