"""Microbenchmark experiments: Fig 11a, Fig 11b, Fig 16b, Section 2.4.

Each function builds fresh producer/consumer pairs per measurement and
returns plain dicts the benchmark files render and assert on.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.bench.config import bench_scale, scaled
from repro.bench.microbench import (STANDARD_TRANSPORTS, MicrobenchResult,
                                    make_pair, measure_each)
from repro.runtime.values import ImageValue, NdArrayValue
from repro.units import KB, MB
from repro.workloads.data import make_book_text, make_trades

# Per-type resident library sets (Fig 11a's "large dependent library"
# observation): a Python + serverless-framework baseline container, plus
# numpy/pandas/PIL/LightGBM on top for the types that import them.
_TYPE_LIBS = {
    "int": 128 * MB,
    "str": 128 * MB,
    "list(str)": 128 * MB,
    "list(int)": 128 * MB,
    "dict": 128 * MB,
    "numpy ndarray": 144 * MB,
    "pandas dataframe": 176 * MB,
    "Pillow Image": 144 * MB,
    "ML model": 160 * MB,
}


def synthetic_model(total_bytes: int, n_trees: int = 64) -> "MLModelValue":
    """A LightGBM-ensemble-shaped payload of roughly *total_bytes*
    (the paper's serving model is 8.6 MB over 64 trees).  Node arrays are
    deterministic garbage — Fig 11a only transfers the model."""
    from repro.runtime.values import MLModelValue, TreeValue

    per_node = 28  # int32 + f64 + int32 + int32 + f64
    nodes = max(8, total_bytes // (n_trees * per_node))
    trees = []
    for t in range(n_trees):
        rng = np.random.default_rng(t)
        trees.append(TreeValue(
            feature=rng.integers(-1, 16, size=nodes).astype(np.int32),
            threshold=rng.random(nodes),
            left=rng.integers(0, nodes, size=nodes).astype(np.int32),
            right=rng.integers(0, nodes, size=nodes).astype(np.int32),
            value=rng.random(nodes),
        ))
    return MLModelValue(trees, n_features=16)


def fig11a_values(scale: Optional[float] = None) -> Dict[str, object]:
    """The nine Python payloads of Fig 11a (scaled)."""
    s = bench_scale() if scale is None else scale
    text = make_book_text(n_bytes=scaled(13 * MB, s))
    rows = scaled(7000, s)
    ndarray = NdArrayValue(
        np.arange(rows * 785, dtype=np.float64).reshape(rows, 785))
    nested = {"l1": {"l2": {"l3": {"l4": {"l5": {"leaf": 42,
                                                 "tag": "deep"}}}}}}
    # the paper's image is 5.3 MB; grayscale, so side = sqrt(bytes)
    side = max(64, int(scaled(int(5.3 * MB), s) ** 0.5))
    image = ImageValue(side, side,
                       bytes(bytearray((i * 7) & 0xFF
                                       for i in range(side * side))))
    model = synthetic_model(scaled(int(8.6 * MB), s, minimum=64 * KB))
    return {
        "int": 7,
        "str": text,
        "list(str)": text.split("\n")[0].split(" ")[:scaled(200_000, s)],
        "dict": nested,
        "numpy ndarray": ndarray,
        "list(int)": list(range(scaled(400_000, s))),
        "pandas dataframe": make_trades(scaled(25_000, s)),
        "Pillow Image": image,
        "ML model": model,
    }


def fig11a_datatypes(scale: Optional[float] = None
                     ) -> Dict[str, Dict[str, MicrobenchResult]]:
    """T/N/R breakdown for every (data type, transport) pair."""
    return {type_name: measure_each(
                STANDARD_TRANSPORTS, value,
                resident_lib_bytes=_TYPE_LIBS[type_name])
            for type_name, value in fig11a_values(scale).items()}


def _e2e_ns(row: Dict[str, MicrobenchResult]) -> Dict[str, int]:
    return {tname: result.e2e_ns for tname, result in row.items()}


def fig11b_payload_sweep(entry_counts: Optional[List[int]] = None
                         ) -> Dict[int, Dict[str, int]]:
    """E2E time vs list(int) entry count (log-scale sweep).

    Uses slim containers, matching the paper's quoted ~11 us RMMAP startup
    for this microbenchmark (one RPC + CoW marking of a small space).
    """
    if entry_counts is None:
        top = scaled(400_000, minimum=2_000)
        entry_counts = []
        n = 8
        while n <= top:
            entry_counts.append(n)
            n *= 8
        if entry_counts[-1] != top:
            entry_counts.append(top)
    return {count: _e2e_ns(measure_each(STANDARD_TRANSPORTS,
                                        list(range(count)),
                                        resident_lib_bytes=2 * MB))
            for count in entry_counts}


def fig16b_naos(pair_counts: Optional[List[int]] = None
                ) -> Dict[int, Dict[str, int]]:
    """RMMAP vs Naos on the (Integer, char[5]) Java map microbenchmark."""
    if pair_counts is None:
        pair_counts = [scaled(n, minimum=4_000)
                       for n in (40_000, 160_000, 640_000)]
    return {count: _e2e_ns(measure_each(("naos", "rmmap"),
                                        {i: "v" * 5 for i in range(count)},
                                        resident_lib_bytes=8 * MB))
            for count in pair_counts}


def section24_calibration() -> Dict[str, float]:
    """Section 2.4's quoted costs, measured on our substrate.

    * serializing a multi-hundred-thousand-sub-object dataframe costs
      ~10 ms (25 ns x 401,839 plus copies);
    * deserializing it costs ~12 ms;
    * a 4 MB single-thread copy costs ~2.5 ms.
    """
    from repro.runtime.serializer import Serializer
    from repro.units import to_ms, transfer_time_ns

    _e, producer, consumer = make_pair()
    trades = make_trades(n_rows=45_000)  # ~400k sub-objects when boxed
    root = producer.heap.box(trades)
    sub_objects = producer.heap.count_reachable(root)
    producer.ledger.drain()
    ser = Serializer()
    state = ser.serialize(producer.heap, root)
    serialize_ms = to_ms(producer.ledger.drain())
    consumer.ledger.drain()
    ser.deserialize(consumer.heap, state)
    deserialize_ms = to_ms(consumer.ledger.drain())
    copy_ms = to_ms(transfer_time_ns(
        4 * MB, producer.heap.cost.serialize_copy_gbps))
    return {
        "sub_objects": sub_objects,
        "serialize_ms": serialize_ms,
        "deserialize_ms": deserialize_ms,
        "copy_4mb_ms": copy_ms,
        "state_bytes": state.nbytes,
    }
