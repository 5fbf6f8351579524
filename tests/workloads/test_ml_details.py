"""Deeper unit tests for the ML workload building blocks."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import run
from repro.runtime.values import MLModelValue, TreeValue
from repro.transfer import list_transports
from repro.workloads.data import make_images
from repro.workloads.ml_prediction import _pad_tree, train_reference_model
from repro.workloads.ml_training import (binary_labels, fit_pca, grow_tree,
                                         images_to_matrix, pca_transform,
                                         predict_margins, reference_basis)

from ..parent_reference import (images_to_matrix_per_image,
                                predict_margin_per_row,
                                predict_margins_per_tree, predict_per_row,
                                predict_rows_per_tree)


def test_images_to_matrix_shape_and_scale():
    images, _ = make_images(10, seed=0)
    matrix = images_to_matrix(images)
    assert matrix.shape == (10, 28 * 28)
    assert 0.0 <= matrix.min() and matrix.max() <= 1.0


def test_images_to_matrix_is_the_per_image_stack():
    images, _ = make_images(7, seed=3)
    assert np.array_equal(images_to_matrix(images),
                          images_to_matrix_per_image(images))
    with pytest.raises(ValueError):
        images_to_matrix(images[:2] + make_images(1, side=20, seed=3)[0])
    with pytest.raises(ValueError):
        images_to_matrix([])


def test_binary_labels_partition():
    labels = [0, 4, 5, 9]
    target = binary_labels(labels)
    assert list(target) == [-1.0, -1.0, 1.0, 1.0]


def test_reference_basis_cached_and_deterministic():
    a_mean, a_comps = reference_basis(8)
    b_mean, b_comps = reference_basis(8)
    assert a_mean is b_mean  # cached object
    c_mean, c_comps = reference_basis(12)
    assert c_comps.shape[1] == 12
    assert np.array_equal(a_comps, b_comps)


def test_fit_pca_captures_variance_in_order():
    rng = np.random.default_rng(0)
    # anisotropic data: one dominant direction
    base = rng.normal(size=(500, 1)) @ np.array([[5.0, 0.5, 0.1, 0.0]])
    data = base + rng.normal(scale=0.1, size=(500, 4))
    mean, comps = fit_pca(data, 2)
    feats = pca_transform(data, mean, comps)
    # first component variance dominates the second
    assert feats[:, 0].var() > 5 * feats[:, 1].var()


def test_grow_tree_respects_min_leaf():
    rng = np.random.default_rng(1)
    feats = rng.normal(size=(40, 3))
    target = rng.normal(size=40)
    tree = grow_tree(feats, target, rng, max_depth=8, min_leaf=16)
    # with min_leaf=16 over 40 samples the tree stays tiny
    assert tree.n_nodes <= 7


def test_grow_tree_constant_target_is_single_leaf():
    rng = np.random.default_rng(2)
    feats = rng.normal(size=(100, 3))
    tree = grow_tree(feats, np.ones(100), rng)
    assert tree.n_nodes == 1
    assert tree.predict(feats[0]) == pytest.approx(1.0)


def test_pad_tree_preserves_predictions():
    rng = np.random.default_rng(3)
    feats = rng.normal(size=(200, 4))
    target = np.where(feats[:, 0] > 0, 1.0, -1.0)
    tree = grow_tree(feats, target, rng)
    padded = _pad_tree(tree, 500)
    assert padded.n_nodes == 500
    for x in feats[:20]:
        assert padded.predict(x) == pytest.approx(tree.predict(x))


def test_padded_model_size_scales():
    small = train_reference_model(n_components=8, n_trees=4, pad_nodes=0)
    big = train_reference_model(n_components=8, n_trees=4, pad_nodes=1000)
    assert big.nbytes() > 10 * small.nbytes()
    # same predictions
    x = np.zeros(8)
    assert big.predict_margin(x) == pytest.approx(small.predict_margin(x))


def test_predict_margins_vectorizes_over_rows():
    model = train_reference_model(n_components=8, n_trees=4)
    images, _ = make_images(5, seed=9)
    matrix = images_to_matrix(images)
    mean, comps = reference_basis(8)
    feats = pca_transform(matrix, mean, comps)
    margins = predict_margins(model, feats)
    assert margins.shape == (5,)
    assert margins[0] == pytest.approx(model.predict_margin(feats[0]))


def test_tree_cache_returns_equal_results():
    from repro.workloads.ml_training import _boost_trees
    rng = np.random.default_rng(4)
    feats = rng.normal(size=(128, 8))
    target = np.sign(feats[:, 0])
    first = _boost_trees(feats, target, 2, instance_index=0)
    second = _boost_trees(feats, target, 2, instance_index=0)
    assert first is second  # memoized
    other = _boost_trees(feats, target, 2, instance_index=1)
    assert other is not first


def test_tree_cache_tells_training_sets_apart():
    """Two matrices that share a first cell and a label sum are still
    two training sets (the memo used to be keyed on just those)."""
    from repro.workloads.ml_training import _boost_trees
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=(2, 128, 8))
    b[0, 0] = a[0, 0]
    target = np.sign(rng.normal(size=128))
    first = _boost_trees(a, target, 2, 0)
    second = _boost_trees(b, target[::-1].copy(), 2, 0)
    assert second is not first
    assert second != first
    assert _boost_trees(a.copy(), target.copy(), 2, 0) is first


# --- the many-rows predict is the per-row predict, bit for bit ---------------------------

@st.composite
def ensembles(draw):
    """A few random trees over 1-4 features: single-leaf trees, padding
    leaves nothing reaches, thresholds drawn from the same small set as
    the rows (so ``x <= threshold`` ties happen), values of mixed sign."""
    n_features = draw(st.integers(1, 4))
    grid = st.sampled_from([-1.5, -0.0, 0.0, 0.25, 1.0, 3.0])
    leaf_values = st.floats(-1e6, 1e6, allow_nan=False, width=64)
    trees = []
    for _ in range(draw(st.integers(0, 5))):
        internal = draw(st.integers(0, 6))
        nodes = 2 * internal + 1 + draw(st.integers(0, 3))  # + padding
        feature = [-1] * nodes
        threshold, left, right = [0.0] * nodes, [0] * nodes, [0] * nodes
        leaves, used = [0], 1
        for _split in range(internal):  # split a random leaf in two
            node = leaves.pop(draw(st.integers(0, len(leaves) - 1)))
            feature[node] = draw(st.integers(0, n_features - 1))
            threshold[node] = draw(grid)
            left[node], right[node] = used, used + 1
            leaves += [used, used + 1]
            used += 2
        value = draw(st.lists(leaf_values, min_size=nodes, max_size=nodes))
        trees.append(TreeValue(feature, threshold, left, right, value))
    rows = draw(st.lists(st.lists(grid, min_size=n_features,
                                  max_size=n_features), max_size=12))
    return (MLModelValue(trees, n_features),
            np.array(rows, dtype=np.float64).reshape(len(rows), n_features))


@settings(max_examples=60, deadline=None)
@given(ensembles())
def test_many_rows_predict_equals_the_per_row_walk(case):
    model, rows = case
    margins = predict_margins(model, rows)
    assert margins.dtype == np.float64 and margins.shape == (len(rows),)
    assert np.array_equal(
        margins, np.array([predict_margin_per_row(model, x) for x in rows],
                          dtype=np.float64))
    for tree in model.trees:
        assert np.array_equal(
            tree.predict_rows(rows),
            np.array([predict_per_row(tree, x) for x in rows],
                     dtype=np.float64))
        for x in rows[:2]:
            assert tree.predict(x) == predict_per_row(tree, x)
    for x in rows[:2]:
        assert model.predict_margin(x) == predict_margin_per_row(model, x)


@settings(max_examples=60, deadline=None)
@given(ensembles(), st.booleans())
def test_one_pass_over_all_trees_equals_the_per_tree_walk(case, padded):
    """All trees walked in one pass give each tree's own leaves and the
    same margins, bit for bit: ragged ensembles, single-leaf trees, zero
    rows, no trees, and (*padded*) every tree padded to one node count
    with unreachable leaves, as the serving model is."""
    model, rows = case
    if padded and model.trees:
        size = max(t.n_nodes for t in model.trees) + 2
        model = MLModelValue([_pad_tree(t, size) for t in model.trees],
                             model.n_features)
    assert np.array_equal(predict_margins(model, rows),
                          predict_margins_per_tree(model, rows))
    for tree in model.trees:
        assert np.array_equal(tree.predict_rows(rows),
                              predict_rows_per_tree(tree, rows))


def _result_digest(result: dict) -> str:
    digest = hashlib.sha256()
    for tree in getattr(result.get("model"), "trees", ()):
        for array in (tree.feature, tree.threshold, tree.left, tree.right,
                      tree.value):
            digest.update(array.tobytes())
    digest.update(repr(sorted(
        (k, v) for k, v in result.items() if k != "model")).encode())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("workflow, digest", [
    # recorded before pca_features stopped fitting and predict went
    # many-rows: every tree array of the merged model, accuracy, counts
    ("ml-training", "6b7ca1a8139e4082"),
    ("ml-prediction", "9392602eb0a5376c"),
])
def test_ml_results_are_what_they_were_on_every_transport(workflow, digest):
    for transport in list_transports():
        result = run(workflow, transport=transport, seed=0,
                     scale=0.05).record.result
        assert _result_digest(result) == digest, transport
