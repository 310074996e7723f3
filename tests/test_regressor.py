"""Regression tree: split selection, growth rules, prediction, importances."""

import math
import random

import pytest

from qlayout.regressor import (
    DEFAULT_MAX_DEPTH,
    RegressionTree,
    best_split,
    fit,
)

from .oracles import exhaustive_splits, left_to_right_sum, minimal_split


def _random_dataset(rng, n_rows, n_features=6, discrete=False):
    rows = []
    for _ in range(n_rows):
        if discrete:
            rows.append(tuple(float(rng.randint(0, 4)) for _ in range(n_features)))
        else:
            rows.append(tuple(round(rng.uniform(0, 10), 3) for _ in range(n_features)))
    labels = [float(rng.randint(0, 12)) for _ in range(n_rows)]
    return rows, labels


# --------------------------------------------------------------------------
# best_split
# --------------------------------------------------------------------------


def test_split_separates_two_clusters_exactly():
    rows = [(1.0,), (2.0,), (10.0,), (11.0,)]
    labels = [1.0, 1.0, 5.0, 5.0]
    cand = best_split(rows, labels, 0)
    assert cand.threshold == 6.0          # midpoint of 2 and 10
    assert cand.loss == 0.0
    assert (cand.left_count, cand.right_count) == (2, 2)


def test_split_constant_feature_returns_none():
    assert best_split([(3.0,), (3.0,)], [0.0, 1.0], 0) is None


def test_split_equal_labels_prefers_smallest_threshold():
    rows = [(1.0,), (2.0,), (3.0,)]
    cand = best_split(rows, [4.0, 4.0, 4.0], 0)
    assert cand.loss == 0.0
    assert cand.threshold == 1.5          # first midpoint wins ties


def test_split_thresholds_are_midpoints_of_distinct_values():
    rows = [(0.0,), (0.0,), (1.0,), (3.0,)]
    labels = [0.0, 0.0, 1.0, 9.0]
    seen = {s for _, _, s in exhaustive_splits(rows, labels)}
    assert seen == {0.5, 2.0}
    assert best_split(rows, labels, 0).threshold in seen


def test_value_exactly_at_threshold_goes_left():
    rows = [(1.0,), (2.0,), (10.0,), (11.0,)]
    labels = [0.0, 0.0, 10.0, 10.0]
    tree = fit(rows, labels, feature_names=("a",))
    s = tree.root.split.threshold
    assert tree.predict((s,)) == 0      # left leaf mean
    assert tree.predict((s + 1e-9,)) == 10


# --------------------------------------------------------------------------
# fit
# --------------------------------------------------------------------------


def test_fit_single_sample_is_leaf():
    tree = fit([(1.0, 2.0)], [7.0], feature_names=("a", "b"))
    assert tree.root.is_leaf
    assert tree.predict((0.0, 0.0)) == 7


def test_fit_two_clusters_gives_depth_one_tree():
    rows = [(1.0,), (2.0,), (10.0,), (11.0,)]
    labels = [3.0, 3.0, 8.0, 8.0]
    tree = fit(rows, labels, feature_names=("a",))
    assert not tree.root.is_leaf
    assert tree.root.left.is_leaf and tree.root.right.is_leaf
    assert tree.root.left.prediction == 3.0
    assert tree.root.right.prediction == 8.0


def test_fit_respects_max_depth():
    rng = random.Random(5)
    rows, labels = _random_dataset(rng, 40)
    for cap in (1, 2, 3):
        tree = fit(rows, labels, max_depth=cap)

        def depth(node):
            if node.is_leaf:
                return 0
            return 1 + max(depth(node.left), depth(node.right))

        assert depth(tree.root) <= cap


def test_fit_stops_on_zero_spread():
    tree = fit([(1.0,), (2.0,), (3.0,)], [5.0, 5.0, 5.0], feature_names=("a",))
    assert tree.root.is_leaf


def test_node_statistics_add_left_to_right():
    # Compensated summation (the builtin sum since CPython 3.12) gives a
    # mean of exactly 0.1 and a zero spread here.
    labels = [0.1] * 10
    assert left_to_right_sum(labels) != math.fsum(labels)
    mean = left_to_right_sum(labels) / 10
    root = fit([(float(i),) for i in range(10)], labels, max_depth=0).root
    assert root.prediction == mean
    assert root.node_mse == left_to_right_sum((v - mean) ** 2 for v in labels) / 10


def test_fit_rejects_empty_and_mismatched_input():
    with pytest.raises(ValueError):
        fit([], [])
    with pytest.raises(ValueError):
        fit([(1.0,)], [1.0, 2.0])


def test_fit_every_split_matches_exhaustive_minimum():
    rng = random.Random(99)
    for _ in range(12):
        rows, labels = _random_dataset(rng, rng.randint(4, 30), discrete=rng.random() < 0.5)

        def walk(node, rws, lbs):
            if node.is_leaf:
                return
            want = minimal_split(rws, lbs)
            assert (node.split.feature_index, node.split.threshold) == want
            f, s = want
            li = [i for i, r in enumerate(rws) if r[f] <= s]
            ri = [i for i, r in enumerate(rws) if r[f] > s]
            walk(node.left, [rws[i] for i in li], [lbs[i] for i in li])
            walk(node.right, [rws[i] for i in ri], [lbs[i] for i in ri])

        walk(fit(rows, labels).root, list(rows), list(labels))


# --------------------------------------------------------------------------
# predict
# --------------------------------------------------------------------------


def test_predict_rounds_half_up_and_clamps():
    leaf = fit([(0.0,)], [6.5], feature_names=("a",))
    assert leaf.predict((0.0,)) == 7
    low = fit([(0.0,)], [-2.0], feature_names=("a",))
    assert low.predict((0.0,)) == 0
    down = fit([(0.0,)], [6.49], feature_names=("a",))
    assert down.predict((0.0,)) == 6


def test_predict_stays_within_label_range():
    rng = random.Random(17)
    rows, labels = _random_dataset(rng, 30)
    tree = fit(rows, labels)
    for _ in range(50):
        probe = tuple(rng.uniform(-5, 15) for _ in range(6))
        assert min(labels) - 0.5 <= tree.predict(probe) <= max(labels) + 0.5


def test_predict_walks_are_reproducible():
    rng = random.Random(23)
    rows, labels = _random_dataset(rng, 25)
    tree = fit(rows, labels)

    def oracle_walk(node, row):
        while not node.is_leaf:
            node = node.left if row[node.split.feature_index] <= node.split.threshold else node.right
        return max(0, math.floor(node.prediction + 0.5))

    for _ in range(20):
        probe = tuple(rng.uniform(0, 10) for _ in range(6))
        assert tree.predict(probe) == oracle_walk(tree.root, probe)


# --------------------------------------------------------------------------
# feature importance
# --------------------------------------------------------------------------


def test_single_split_importance_is_one_hot():
    rows = [(1.0, 5.0), (2.0, 5.0), (10.0, 5.0), (11.0, 5.0)]
    labels = [0.0, 0.0, 4.0, 4.0]
    tree = fit(rows, labels, feature_names=("a", "b"))
    assert tree.feature_importance() == [1.0, 0.0]


def test_leaf_only_tree_importance_is_zero_vector():
    tree = fit([(1.0,), (2.0,)], [3.0, 3.0], feature_names=("a",))
    assert tree.feature_importance() == [0.0]


def test_importances_nonnegative_and_normalized():
    rng = random.Random(31)
    for _ in range(10):
        rows, labels = _random_dataset(rng, rng.randint(5, 40))
        tree = fit(rows, labels)
        imp = tree.feature_importance()
        assert all(w >= 0.0 for w in imp)
        if not tree.root.is_leaf:
            assert math.isclose(sum(imp), 1.0, abs_tol=1e-9)


def test_importance_matches_hand_bookkeeping():
    rng = random.Random(37)
    rows, labels = _random_dataset(rng, 20)
    tree = fit(rows, labels, max_depth=3)
    raw = [0.0] * 6

    def visit(node):
        if node.is_leaf:
            return
        n = node.sample_count
        raw[node.split.feature_index] += (
            node.node_mse
            - node.left.sample_count / n * node.left.node_mse
            - node.right.sample_count / n * node.right.node_mse
        )
        visit(node.left)
        visit(node.right)

    visit(tree.root)
    total = sum(raw)
    want = [w / total for w in raw] if total > 0 else raw
    got = tree.feature_importance()
    assert all(math.isclose(a, b, abs_tol=1e-12) for a, b in zip(got, want))


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------


def test_json_round_trip_preserves_predictions():
    rng = random.Random(41)
    rows, labels = _random_dataset(rng, 30)
    tree = fit(rows, labels, target="swaps", max_depth=4)
    clone = RegressionTree.from_json(tree.to_json())
    assert clone.target == "swaps"
    assert clone.max_depth == 4
    assert clone.feature_names == tree.feature_names
    for _ in range(25):
        probe = tuple(rng.uniform(0, 10) for _ in range(6))
        assert clone.predict(probe) == tree.predict(probe)


def test_save_load_and_default_depth(tmp_path):
    rng = random.Random(43)
    rows, labels = _random_dataset(rng, 12)
    tree = fit(rows, labels)
    assert tree.max_depth == DEFAULT_MAX_DEPTH == 5
    path = tmp_path / "model.json"
    tree.save(path)
    loaded = RegressionTree.load(path)
    assert loaded.to_json() == tree.to_json()
