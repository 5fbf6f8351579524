"""ML training workflow (ORION-style, Figure 10 top-left).

Four phases: ``partition`` splits the image set for feature extraction;
two ``pca`` instances each fit a PCA basis on their partition and emit
feature matrices; eight ``train`` instances each grow a slice of the
random-forest/boosted ensemble (64 trees total, LightGBM-like); ``merge``
assembles the final model and validates it.

All stages do real numpy math (the tests check model accuracy well above
chance); ``epochs`` scales per-trainer compute the way the paper's
sensitivity analysis does (Fig 13a).
"""

from __future__ import annotations

import hashlib
from typing import List, Tuple

import numpy as np

from repro.platform.dag import FunctionSpec, Workflow
from repro.runtime.values import (ImageValue, MLModelValue, NdArrayValue,
                                  TreeValue)
from repro.units import MB, us
from repro.workloads.data import make_images

DEFAULT_IMAGES = 1000
DEFAULT_COMPONENTS = 16
DEFAULT_TREES = 64
PCA_WIDTH = 2
TRAIN_WIDTH = 8

#: calibrated compute: one boosting epoch over one sample (tree scan)
_EPOCH_NS_PER_SAMPLE = 900
#: PCA cost per matrix cell (covariance + projection)
_PCA_NS_PER_CELL = 6


# --- pure ML building blocks (tested standalone) ----------------------------------

def images_to_matrix(images: List[ImageValue]) -> np.ndarray:
    """Stack grayscale images into an (n, pixels) float matrix."""
    if not images or len({img.nbytes for img in images}) != 1:
        raise ValueError("images_to_matrix needs images of one size")
    pixels = np.frombuffer(b"".join(img.pixels for img in images), np.uint8)
    return pixels.reshape(len(images), -1).astype(np.float64) / 255.0


def fit_pca(matrix: np.ndarray,
            n_components: int) -> Tuple[np.ndarray, np.ndarray]:
    """(mean, components) of a PCA basis via eigen-decomposition."""
    mean = matrix.mean(axis=0)
    centered = matrix - mean
    cov = centered.T @ centered / max(1, len(matrix) - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:n_components]
    return mean, eigvecs[:, order]


def pca_transform(matrix: np.ndarray, mean: np.ndarray,
                  components: np.ndarray) -> np.ndarray:
    return (matrix - mean) @ components


_BASIS_CACHE: dict = {}


def reference_basis(n_components: int, side: int = 28,
                    seed: int = 42) -> Tuple[np.ndarray, np.ndarray]:
    """The canonical shared PCA basis.

    PCA eigenvectors have arbitrary sign/order, so every pipeline stage
    (feature extraction, training, validation, serving) must project onto
    the *same* basis; it is fit once on a fixed reference sample — the
    moral equivalent of shipping the fitted scikit-learn transformer with
    the model.
    """
    key = (n_components, side, seed)
    if key not in _BASIS_CACHE:
        images, _ = make_images(n_images=300, side=side, seed=seed)
        matrix = images_to_matrix(images)
        _BASIS_CACHE[key] = fit_pca(matrix, n_components)
    return _BASIS_CACHE[key]


def grow_tree(features: np.ndarray, residual: np.ndarray,
              rng: np.random.Generator, max_depth: int = 4,
              min_leaf: int = 8) -> TreeValue:
    """Greedy regression tree on *residual* (one boosting step)."""
    feature_ids: List[int] = []
    thresholds: List[float] = []
    lefts: List[int] = []
    rights: List[int] = []
    values: List[float] = []

    def build(idx: np.ndarray, depth: int) -> int:
        node = len(feature_ids)
        feature_ids.append(-1)
        thresholds.append(0.0)
        lefts.append(0)
        rights.append(0)
        values.append(float(residual[idx].mean()) if len(idx) else 0.0)
        if depth >= max_depth or len(idx) < 2 * min_leaf:
            return node
        best = _best_split(features[idx], residual[idx], rng, min_leaf)
        if best is None:
            return node
        feat, thr = best
        mask = features[idx, feat] <= thr
        left_idx, right_idx = idx[mask], idx[~mask]
        if len(left_idx) < min_leaf or len(right_idx) < min_leaf:
            return node
        feature_ids[node] = feat
        thresholds[node] = thr
        lefts[node] = build(left_idx, depth + 1)
        rights[node] = build(right_idx, depth + 1)
        return node

    build(np.arange(len(features)), 0)
    return TreeValue(
        feature=np.array(feature_ids, dtype=np.int32),
        threshold=np.array(thresholds, dtype=np.float64),
        left=np.array(lefts, dtype=np.int32),
        right=np.array(rights, dtype=np.int32),
        value=np.array(values, dtype=np.float64),
    )


def _best_split(feats: np.ndarray, resid: np.ndarray,
                rng: np.random.Generator, min_leaf: int):
    n, d = feats.shape
    best_gain, best = 0.0, None
    base = resid.var() * n
    for feat in rng.choice(d, size=min(d, 6), replace=False):
        col = feats[:, feat]
        for thr in np.quantile(col, (0.25, 0.5, 0.75)):
            mask = col <= thr
            nl = int(mask.sum())
            if nl < min_leaf or n - nl < min_leaf:
                continue
            score = (resid[mask].var() * nl
                     + resid[~mask].var() * (n - nl))
            gain = base - score
            if gain > best_gain:
                best_gain, best = gain, (int(feat), float(thr))
    return best


def boost(feats: np.ndarray, target: np.ndarray, n_trees: int,
          rng: np.random.Generator, lr: float = 0.3) -> List[TreeValue]:
    """Gradient-boost *n_trees* trees on tanh-loss residuals."""
    margins = np.zeros(len(target))
    trees: List[TreeValue] = []
    for _ in range(n_trees):
        tree = grow_tree(feats, target - np.tanh(margins), rng)
        trees.append(tree)
        margins += lr * tree.predict_rows(feats)
    return trees


def predict_margins(model: MLModelValue, features: np.ndarray) -> np.ndarray:
    return model.predict_margins(features)


def binary_labels(labels: List[int]) -> np.ndarray:
    """The ensemble discriminates class < 5 vs >= 5 (a binary task keeps
    64 trees meaningful on synthetic data)."""
    return (np.asarray(labels) >= 5).astype(np.float64) * 2.0 - 1.0


# --- workflow functions ---------------------------------------------------------------

def partition_images(ctx):
    """Load the image set and split it for the PCA instances (scatter)."""
    n_images = ctx.params.get("n_images", DEFAULT_IMAGES)
    seed = ctx.params.get("seed", 0)
    images, labels = make_images(n_images=n_images, seed=seed)
    ctx.charge_compute(n_images * us(2))  # decode/stage each image
    return split_images(images, labels, PCA_WIDTH)


def split_images(images: list, labels: list, width: int) -> List[dict]:
    """*width* contiguous ``{"images", "labels"}`` slices of the set."""
    chunk = (len(images) + width - 1) // width
    return [{"images": images[p * chunk:(p + 1) * chunk],
             "labels": labels[p * chunk:(p + 1) * chunk]}
            for p in range(width)]


def pca_features(ctx):
    """One PCA instance: featurize its partition on the shared basis.

    The emitted features are projections onto the canonical basis, so
    trainers can stack partitions coherently.  ORION's stage also fits
    its partition's covariance: that fit is *charged* (``_PCA_NS_PER_CELL``
    covers covariance + projection) but not computed — no output depends
    on it, and an ``eigh`` of pixels x pixels does not shrink with scale.
    """
    part = ctx.single_input("partition")
    n_components = ctx.params.get("n_components", DEFAULT_COMPONENTS)
    matrix = images_to_matrix(part["images"])
    mean, comps = reference_basis(n_components)
    feats = pca_transform(matrix, mean, comps)
    ctx.charge_compute(matrix.size * _PCA_NS_PER_CELL)
    return {"features": NdArrayValue(feats), "labels": part["labels"]}


_TREE_CACHE: dict = {}


def _boost_trees(feats: np.ndarray, target: np.ndarray, n_trees: int,
                 instance_index: int) -> List[TreeValue]:
    """Gradient-boost *n_trees* trees (deterministic per instance seed).

    Memoized: the result is a pure function of its inputs, and workloads
    re-train identically under every transport, so caching only removes
    redundant host CPU — the simulated compute charge is unaffected.
    """
    key = (instance_index, n_trees, feats.shape, hashlib.blake2b(
        feats.tobytes() + target.tobytes(), digest_size=16).digest())
    cached = _TREE_CACHE.get(key)
    if cached is not None:
        return cached
    trees = boost(feats, target, n_trees,
                  np.random.default_rng(1000 + instance_index))
    if len(_TREE_CACHE) < 64:
        _TREE_CACHE[key] = trees
    return trees


def train_trees(ctx):
    """One trainer: gradient-boost its slice of the 64-tree ensemble."""
    pca_outputs = ctx.inputs["pca"]
    feats = np.vstack([o["features"].array for o in pca_outputs])
    labels = [lab for o in pca_outputs for lab in o["labels"]]
    target = binary_labels(labels)
    epochs = ctx.params.get("epochs", 10)
    n_trees = ctx.params.get("n_trees", DEFAULT_TREES) // TRAIN_WIDTH
    trees = _boost_trees(feats, target, n_trees, ctx.instance_index)
    # epochs scale refinement passes (the Fig 13a knob); compute-only
    ctx.charge_compute(epochs * len(target) * _EPOCH_NS_PER_SAMPLE)
    return [NdArrayValue(np.vstack([tr.feature.astype(np.float64),
                                    tr.threshold,
                                    tr.left.astype(np.float64),
                                    tr.right.astype(np.float64),
                                    tr.value]))
            for tr in trees]


def merge_model(ctx):
    """Assemble the ensemble and validate on fresh images."""
    n_components = ctx.params.get("n_components", DEFAULT_COMPONENTS)
    trees: List[TreeValue] = []
    for packed_trees in ctx.inputs["train"]:
        for packed in packed_trees:
            arr = packed.array
            trees.append(TreeValue(
                feature=arr[0].astype(np.int32),
                threshold=arr[1],
                left=arr[2].astype(np.int32),
                right=arr[3].astype(np.int32),
                value=arr[4]))
    model = MLModelValue(trees, n_features=n_components)

    # validation set, disjoint seed, same shared basis
    images, labels = make_images(n_images=200,
                                 seed=ctx.params.get("seed", 0) + 999)
    matrix = images_to_matrix(images)
    mean, comps = reference_basis(n_components)
    feats = pca_transform(matrix, mean, comps)
    target = binary_labels(labels)
    preds = np.sign(predict_margins(model, feats))
    preds[preds == 0] = 1.0
    accuracy = float((preds == target).mean())
    ctx.charge_compute(len(images) * len(trees) * 120)
    return {"model": model, "accuracy": accuracy,
            "n_trees": model.n_trees}


def build_ml_training() -> Workflow:
    """partition -> 2x pca -> 8x train -> merge."""
    wf = Workflow("ml-training")
    wf.add_function(FunctionSpec("partition", partition_images,
                                 memory_budget=512 * MB,
                                 lib_bytes=64 * MB))
    wf.add_function(FunctionSpec("pca", pca_features, width=PCA_WIDTH,
                                 memory_budget=512 * MB,
                                 lib_bytes=96 * MB))  # numpy/scipy
    wf.add_function(FunctionSpec("train", train_trees, width=TRAIN_WIDTH,
                                 memory_budget=512 * MB,
                                 lib_bytes=112 * MB))  # + LightGBM
    wf.add_function(FunctionSpec("merge", merge_model,
                                 memory_budget=512 * MB,
                                 lib_bytes=112 * MB))
    wf.add_edge("partition", "pca", scatter=True)
    wf.add_edge("pca", "train")
    wf.add_edge("train", "merge")
    return wf
