"""Regression tree: split selection, growth rules, prediction, importances."""

import json
import math
import random
from fractions import Fraction

import pytest

from qlayout.regressor import (
    DEFAULT_MAX_DEPTH,
    RegressionTree,
    best_split,
    fit,
)

from .oracles import (
    best_split_per_threshold,
    exhaustive_splits,
    fit_per_threshold,
    left_to_right_sum,
    minimal_split,
)


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
    assert sum(row[0] <= cand.threshold for row in rows) == 2


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


def test_fit_does_not_split_equal_labels_on_rounding_noise():
    # seven times 0.7 adds up to a mean just off 0.7, so the float spread
    # is about 1e-32 although every label is the same
    rows, labels = [(float(i),) for i in range(7)], [0.7] * 7
    tree = fit(rows, labels, feature_names=("a",))
    assert tree.root.node_mse > 0.0
    assert tree.root.is_leaf
    assert tree.feature_importance() == [0.0]


@pytest.mark.parametrize("rows, labels", [
    ([(1.0, 0.0), (2.0, math.nan)], [1.0, 2.0]),
    ([(1.0, 0.0), (math.inf, 0.0)], [1.0, 2.0]),
    ([(1.0, 0.0), (2.0, 0.0)], [1.0, math.nan]),
    ([(1.0, 0.0), (2.0, 0.0)], [2.0, -math.inf]),
    ([(1.0, 0.0), (10**400, 0.0)], [1.0, 2.0]),
    ([(1.0, 0.0), (2.0, 0.0), (3.0, 0.0)], [1.0, math.nan, 3.0]),
])
def test_fit_rejects_non_finite_rows_and_labels(rows, labels):
    with pytest.raises(ValueError, match="sample 1 is not finite"):
        fit(rows, labels, feature_names=("a", "b"))
    with pytest.raises(ValueError, match="sample 1 is not finite"):
        best_split(rows, labels, 0)


def test_node_statistics_add_left_to_right():
    # Compensated summation (the builtin sum since CPython 3.12) gives a
    # mean of exactly 0.1 and a zero spread here.
    labels = [0.1] * 10
    assert left_to_right_sum(labels) != math.fsum(labels)
    mean = left_to_right_sum(labels) / 10
    root = fit([(float(i),) for i in range(10)], labels, max_depth=0,
               feature_names=("a",)).root
    assert root.prediction == mean
    assert root.node_mse == left_to_right_sum((v - mean) ** 2 for v in labels) / 10


def test_fit_rejects_empty_and_mismatched_input():
    with pytest.raises(ValueError):
        fit([], [])
    with pytest.raises(ValueError):
        fit([(1.0,)], [1.0, 2.0])


@pytest.mark.parametrize("rows, names", [
    ([(1.0,), (3.0, 4.0)], ("a",)),
    ([(1.0, 2.0), (3.0,)], ("a", "b")),
    ([(1.0, 2.0), (3.0, 4.0)], ("a",)),
])
def test_fit_rejects_rows_that_do_not_match_the_feature_names(rows, names):
    bad = next(i for i, row in enumerate(rows) if len(row) != len(names))
    with pytest.raises(ValueError, match=f"sample {bad} has {len(rows[bad])} features"):
        fit(rows, [1.0, 2.0], feature_names=names)


def test_fit_rejects_a_negative_max_depth():
    with pytest.raises(ValueError, match="max_depth must be at least 0, not -1"):
        fit([(1.0,), (2.0,)], [1.0, 2.0], max_depth=-1)


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


def _table(rng, kind):
    """A random table whose float losses are likely to tie or nearly tie."""
    n = rng.randint(2, 40)
    if kind == "twins":  # equal columns: ties across features
        base = [(float(rng.randint(0, 5)), rng.choice((0.1, 0.2, 0.3))) for _ in range(n)]
        rows = [(a, b, a, b, a, 1.0) for a, b in base]
    elif kind == "adjacent":  # each column holds v or the next float up
        # the midpoint rounds to v or to the next float up: a threshold equal
        # to the upper value leaves the right side empty
        pairs = [(v, math.nextafter(v, math.inf)) for v in (rng.uniform(0, 9) for _ in range(6))]
        rows = [tuple(rng.choice(pair) for pair in pairs) for _ in range(n)]
    elif kind == "repeats":  # many samples per distinct row
        n = rng.randint(2, 300)
        base = [tuple(float(rng.randint(0, 6)) for _ in range(6))
                for _ in range(rng.randint(1, 10))]
        rows = [rng.choice(base) for _ in range(n)]
    else:
        rows = [tuple(float(rng.randint(0, 6)) for _ in range(6)) for _ in range(n)]
    pick = {
        "integers": lambda: float(rng.randint(0, 12)),
        "tenths": lambda: rng.choice((0.1, 0.3, 0.6, 0.7)),
        "decimals": lambda: round(rng.uniform(0, 2), 2),
        "twins": lambda: rng.choice((0.7, 0.6, 0.3)),
        "offset": lambda: 1e8 + rng.choice((0.1, 0.2, 0.3)),
        "tiny": lambda: rng.choice((1e-60, 3e-60, 7e-61)),
        "huge": lambda: rng.choice((1e100, 3e100, -2e99)),
        "unscreened": lambda: rng.choice((1e-150, 1e150, 0.5)),
        "repeats": lambda: rng.choice((float(rng.randint(0, 12)), 0.1, 0.3, 0.7, 1e8 + 0.1)),
        "adjacent": lambda: float(rng.randint(0, 12)),
    }[kind]
    return rows, [pick() for _ in range(n)]


@pytest.mark.parametrize("kind", [
    "integers", "tenths", "decimals", "twins", "offset", "tiny", "huge", "unscreened",
    "repeats", "adjacent",
])
def test_fit_matches_the_per_threshold_search(kind):
    rng = random.Random(f"split-{kind}")
    for _ in range(50):
        rows, labels = _table(rng, kind)
        for f in range(6):
            assert best_split(rows, labels, f) == best_split_per_threshold(rows, labels, f)
        assert fit(rows, labels).to_json() == fit_per_threshold(rows, labels).to_json()


def _exact_sse(rows, labels, threshold):
    total = Fraction(0)
    for side in (lambda v: v <= threshold, lambda v: v > threshold):
        ys = [Fraction(y) for (v,), y in zip(rows, labels) if side(v)]
        total += sum((y - sum(ys) / len(ys)) ** 2 for y in ys)
    return total


@pytest.mark.parametrize("rows, labels, first, exact_best", [
    # the float losses of 4.5 and 5.5 are equal, so 4.5 comes first; exactly,
    # 5.5 is lower by about 4e-17 relative
    ([4.0, 3.0, 6.0, 5.0, 6.0], [0.7, 0.7, 0.7, 0.6, 0.3], 4.5, 5.5),
    # exactly, 1.0 and 2.5 tie, but the screen's divisions round 2.5 one
    # unit lower; the float loss of 1.0 is no higher, so 1.0 comes first
    ([2.0, 3.0, 0.0, 0.0, 3.0], [0.6, 0.3, 0.7, 0.2, 0.6], 1.0, 2.5),
])
def test_split_keeps_the_float_order_where_the_exact_order_differs(
    rows, labels, first, exact_best
):
    rows = [(v,) for v in rows]
    assert _exact_sse(rows, labels, exact_best) <= _exact_sse(rows, labels, first)
    cand = best_split(rows, labels, 0)
    assert cand == best_split_per_threshold(rows, labels, 0)
    assert cand.threshold == first


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


def _one_split_model(feature: int) -> str:
    leaf = {"kind": "leaf", "count": 1, "mse": 0.0, "prediction": 1.0}
    return json.dumps({
        "target": "depth", "max_depth": 1, "feature_names": ["a", "b"],
        "root": {"kind": "split", "count": 2, "mse": 0.0, "prediction": 1.0,
                 "feature": feature, "threshold": 0.5, "left": leaf, "right": leaf},
    })


@pytest.mark.parametrize("text", ["[]", "5", '{"target": "depth"}', '{"root": []}'])
def test_from_json_rejects_a_malformed_model(text):
    with pytest.raises(ValueError, match="bad model"):
        RegressionTree.from_json(text)


@pytest.mark.parametrize("feature", [2, 7, -1])
def test_from_json_rejects_a_split_outside_the_feature_list(feature):
    with pytest.raises(ValueError, match=f"feature {feature} of 2"):
        RegressionTree.from_json(_one_split_model(feature))
    assert RegressionTree.from_json(_one_split_model(1)).predict((0.0, 1.0)) == 1


@pytest.mark.parametrize("path, value, field", [
    (("root", "feature"), 1.6, "feature"),
    (("root", "feature"), True, "feature"),
    (("root", "feature"), "1", "feature"),
    (("root", "count"), True, "count"),
    (("root", "left", "count"), 1.5, "count"),
    (("root", "threshold"), "0.5", "threshold"),
    (("root", "threshold"), 10 ** 400, "threshold"),
    (("root", "right", "prediction"), None, "prediction"),
    (("root", "mse"), False, "mse"),
    (("root", "kind"), "leafy", "kind"),
    (("root", "left", "kind"), None, "kind"),
    (("max_depth",), 1.0, "max_depth"),
], ids=["fractional-feature", "true-feature", "string-feature", "true-count",
        "fractional-leaf-count", "string-threshold", "huge-threshold", "null-prediction",
        "false-mse", "unknown-kind", "null-leaf-kind", "float-max-depth"])
def test_from_json_rejects_a_malformed_field(path, value, field):
    # int() and float() would truncate 1.6, read true and "1" as numbers and
    # overflow on 10**400, and any kind but "split" used to read as a leaf
    doc = json.loads(_one_split_model(1))
    *parents, last = path
    node = doc
    for key in parents:
        node[key] = dict(node[key])             # the two leaves are one dict
        node = node[key]
    node[last] = value
    with pytest.raises(ValueError, match=rf"bad model: .*\b{field} must be"):
        RegressionTree.from_json(json.dumps(doc))


def test_from_json_reads_integral_numbers_as_floats():
    doc = json.loads(_one_split_model(1))
    doc["root"].update(threshold=0, mse=1, prediction=2)
    root = RegressionTree.from_json(json.dumps(doc)).root
    assert (root.split.threshold, root.node_mse, root.prediction) == (0.0, 1.0, 2.0)
    assert all(type(x) is float for x in (root.split.threshold, root.node_mse, root.prediction))


def test_save_load_and_default_depth(tmp_path):
    rng = random.Random(43)
    rows, labels = _random_dataset(rng, 12)
    tree = fit(rows, labels)
    assert tree.max_depth == DEFAULT_MAX_DEPTH == 5
    path = tmp_path / "model.json"
    tree.save(path)
    loaded = RegressionTree.load(path)
    assert loaded.to_json() == tree.to_json()
