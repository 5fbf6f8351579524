"""Host-side value classes for complex managed types.

These are the Python-level stand-ins for the libraries the paper's workloads
use (numpy, pandas, PIL, LightGBM).  They exist so tests can build object
graphs, round-trip them through heaps/serializers, and compare for equality.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np


class NdArrayValue:
    """A numpy-ndarray-like value: one contiguous buffer plus shape/dtype.

    Like real numpy, it serializes as a single large buffer with very few
    sub-objects — and (Section 4.4) it does *not* expose a generic object
    iterator, so semantic-aware prefetch needs the wrapped internal iterator.
    """

    def __init__(self, array: np.ndarray):
        self.array = np.ascontiguousarray(array)

    @property
    def nbytes(self) -> int:
        return self.array.nbytes

    @property
    def shape(self):
        return self.array.shape

    def __eq__(self, other) -> bool:
        return (isinstance(other, NdArrayValue)
                and self.array.shape == other.array.shape
                and self.array.dtype == other.array.dtype
                and np.array_equal(self.array, other.array))

    def __hash__(self):  # pragma: no cover - not used as dict key
        return id(self)

    def __repr__(self) -> str:
        return f"NdArrayValue(shape={self.array.shape}, " \
               f"dtype={self.array.dtype})"


class DataFrameValue:
    """A pandas-dataframe-like value: named columns of boxed cells.

    Cells are individually boxed objects on the heap, reproducing the paper's
    observation that a 3.2 MB dataframe decomposes into ~400 k sub-objects
    (Section 2.4) and is therefore brutally expensive to (de)serialize.
    """

    def __init__(self, columns: Dict[str, List]):
        lengths = {len(v) for v in columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"ragged columns: lengths {sorted(lengths)}")
        self.columns = {str(k): list(v) for k, v in columns.items()}

    @property
    def nrows(self) -> int:
        if not self.columns:
            return 0
        return len(next(iter(self.columns.values())))

    @property
    def ncols(self) -> int:
        return len(self.columns)

    def column(self, name: str) -> List:
        return self.columns[name]

    def row(self, i: int) -> Dict[str, object]:
        return {name: col[i] for name, col in self.columns.items()}

    def sub_object_count(self) -> int:
        """Boxed cells plus per-column lists and names (serializer work)."""
        return sum(len(v) + 2 for v in self.columns.values()) + 1

    def __eq__(self, other) -> bool:
        return (isinstance(other, DataFrameValue)
                and self.columns == other.columns)

    def __hash__(self):  # pragma: no cover
        return id(self)

    def __repr__(self) -> str:
        return f"DataFrameValue({self.nrows}x{self.ncols})"


class ImageValue:
    """A PIL-Image-like value: mode, dimensions and one raw pixel buffer."""

    def __init__(self, width: int, height: int, pixels: bytes,
                 mode: str = "L"):
        bpp = {"L": 1, "RGB": 3, "RGBA": 4}[mode]
        if len(pixels) != width * height * bpp:
            raise ValueError(
                f"pixel buffer {len(pixels)} != {width}x{height}x{bpp}")
        self.width = width
        self.height = height
        self.mode = mode
        self.pixels = bytes(pixels)

    @property
    def nbytes(self) -> int:
        return len(self.pixels)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ImageValue)
                and (self.width, self.height, self.mode, self.pixels)
                == (other.width, other.height, other.mode, other.pixels))

    def __hash__(self):  # pragma: no cover
        return id(self)

    def __repr__(self) -> str:
        return f"ImageValue({self.width}x{self.height} {self.mode})"


class MLModelValue:
    """A LightGBM-like tree-ensemble model.

    Each tree is stored as flat numpy node arrays (feature, threshold,
    left, right, leaf value) — a moderate number of medium-sized buffers,
    matching how a trained booster serializes.
    """

    def __init__(self, trees: Sequence["TreeValue"], n_features: int,
                 n_classes: int = 2):
        self.trees = list(trees)
        self.n_features = int(n_features)
        self.n_classes = int(n_classes)

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    def nbytes(self) -> int:
        return sum(t.nbytes() for t in self.trees)

    def predict_margins(self, rows: np.ndarray) -> np.ndarray:
        """Sum of per-tree outputs for every row of *rows*, accumulated
        tree by tree as a row-at-a-time sum would: the same floats."""
        rows = np.asarray(rows)
        margins = np.zeros(len(rows))
        for leaves in leaf_values(self.trees, rows):
            margins += leaves
        return margins

    def predict_margin(self, x: np.ndarray) -> float:
        """Sum of per-tree outputs for one feature vector."""
        return float(self.predict_margins(np.asarray(x)[None])[0])

    def __eq__(self, other) -> bool:
        return (isinstance(other, MLModelValue)
                and self.n_features == other.n_features
                and self.n_classes == other.n_classes
                and self.trees == other.trees)

    def __hash__(self):  # pragma: no cover
        return id(self)

    def __repr__(self) -> str:
        return f"MLModelValue({self.n_trees} trees, " \
               f"{self.n_features} features)"


class TreeValue:
    """One decision tree in structure-of-arrays form.

    ``feature[i] < 0`` marks node *i* as a leaf whose prediction is
    ``value[i]``; internal nodes branch to ``left``/``right`` on
    ``x[feature] <= threshold``.
    """

    def __init__(self, feature: np.ndarray, threshold: np.ndarray,
                 left: np.ndarray, right: np.ndarray, value: np.ndarray):
        n = len(feature)
        if not (len(threshold) == len(left) == len(right)
                == len(value) == n):
            raise ValueError("tree arrays must have equal length")
        self.feature = np.asarray(feature, dtype=np.int32)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.int32)
        self.right = np.asarray(right, dtype=np.int32)
        self.value = np.asarray(value, dtype=np.float64)

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def nbytes(self) -> int:
        return (self.feature.nbytes + self.threshold.nbytes
                + self.left.nbytes + self.right.nbytes + self.value.nbytes)

    def predict_rows(self, rows: np.ndarray) -> np.ndarray:
        """The leaf value each row of *rows* reaches."""
        return leaf_values([self], np.asarray(rows))[0]

    def predict(self, x: np.ndarray) -> float:
        return float(self.predict_rows(np.asarray(x)[None])[0])

    def __eq__(self, other) -> bool:
        return (isinstance(other, TreeValue)
                and np.array_equal(self.feature, other.feature)
                and np.array_equal(self.threshold, other.threshold)
                and np.array_equal(self.left, other.left)
                and np.array_equal(self.right, other.right)
                and np.array_equal(self.value, other.value))

    def __hash__(self):  # pragma: no cover
        return id(self)


def leaf_values(trees: Sequence[TreeValue], rows: np.ndarray) -> np.ndarray:
    """The ``(len(trees), len(rows))`` leaf values the rows reach: every
    walk goes a level at a time in one pass over the nodes a walk can
    reach (a padded tree's unreachable tail is never copied)."""
    if not trees:
        return np.zeros((0, len(rows)))
    reach = [1 + max(t.left.max(), t.right.max()) if t.n_nodes else 1
             for t in trees]
    if len(trees) > 1 and any(r > t.n_nodes for r, t in zip(reach, trees)):
        # a child index past a tree's end must fail in that tree's walk
        return np.array([leaf_values([t], rows)[0] for t in trees])
    feature, threshold, left, right, value = (
        np.concatenate([getattr(t, name)[:r] for t, r in zip(trees, reach)])
        for name in ("feature", "threshold", "left", "right", "value"))
    root = np.repeat(np.cumsum([0] + reach[:-1]), len(rows))
    row = np.tile(np.arange(len(rows)), len(trees))
    node = root.copy()
    active = np.flatnonzero(feature[node] >= 0)
    while active.size:
        at = node[active]
        goes_left = rows[row[active], feature[at]] <= threshold[at]
        at = np.where(goes_left, left[at], right[at]) + root[active]
        node[active] = at
        active = active[feature[at] >= 0]
    return value[node].reshape(len(trees), len(rows))
