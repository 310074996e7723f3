"""Regression trees for seeding the layout search.

A from-scratch CART: splits minimize the size-weighted mean of the two
sides' within-side squared deviation, thresholds sit at midpoints between
consecutive distinct feature values, and growth stops at a depth cap, at
nodes smaller than two samples, or at zero spread (all labels equal).
Trees serialize to a plain JSON document and report per-feature
importances as normalized spread reductions.

Split search screens, then confirms.  ``fit`` groups the samples by
feature row once and keeps each distinct row's count, sum and sum of
squares of its labels as exact integers; a row's samples all take the
same path down the tree, so these stats split between the children with
the rows.  Each node adds them up per distinct feature value, which ranks
every threshold of every feature by its exact squared deviation in
O(G log G) per feature for a node's G distinct rows.  Only thresholds
within a proven rounding band of the best one get the O(n) float loss over
the node's n samples, usually one per node, so the chosen split and its
loss are those of evaluating the float loss of every threshold, which is
quadratic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .features import FEATURE_NAMES, FeatureVector, ordered_sum

DEFAULT_MAX_DEPTH = 5


def _mean(values: Sequence[float]) -> float:
    return ordered_sum(values) / len(values)


def _mse(values: Sequence[float]) -> float:
    """Mean squared deviation from the mean."""
    m = _mean(values)
    # ordered_sum's left-to-right loop, inlined: this runs for every node
    # and every confirmed split, and a generator slows fitting by 10-30%.
    total = 0.0
    for v in values:
        total += (v - m) ** 2
    return total / len(values)


@dataclass(frozen=True)
class SplitCandidate:
    feature_index: int
    threshold: float
    loss: float          # size-weighted mean of the two side losses


@dataclass
class TreeNode:
    """Internal node (with split and children) or leaf (with prediction)."""

    sample_count: int
    node_mse: float
    prediction: float                       # mean label of training samples
    split: Optional[SplitCandidate] = None
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.split is None

    def to_dict(self) -> dict:
        doc = {
            "kind": "leaf" if self.is_leaf else "split",
            "count": self.sample_count,
            "mse": self.node_mse,
            "prediction": self.prediction,
        }
        if not self.is_leaf:
            doc.update(feature=self.split.feature_index, threshold=self.split.threshold,
                       left=self.left.to_dict(), right=self.right.to_dict())
        return doc

    @staticmethod
    def from_dict(doc: dict) -> "TreeNode":
        node = TreeNode(
            sample_count=int(doc["count"]),
            node_mse=float(doc["mse"]),
            prediction=float(doc["prediction"]),
        )
        if doc["kind"] == "split":
            node.split = SplitCandidate(
                feature_index=int(doc["feature"]),
                threshold=float(doc["threshold"]),
                loss=math.nan,
            )
            node.left = TreeNode.from_dict(doc["left"])
            node.right = TreeNode.from_dict(doc["right"])
        return node


def _splits(node: TreeNode) -> Iterator[TreeNode]:
    """The internal nodes under ``node``, parents before children."""
    if not node.is_leaf:
        yield node
        yield from _splits(node.left)
        yield from _splits(node.right)


def _exact(labels: Sequence[float]) -> list[int]:
    """The labels as integers over one power-of-two denominator, or all 0.

    Every finite float is a / 2**e exactly (``float.as_integer_ratio``), so
    scaling all of them by the largest 2**e gives integers whose sums and
    squares carry no rounding.  The labels must be finite.  Outside the
    range in which ``_best_split`` derives its band (a denominator above
    2**300, where a squared deviation could underflow, or sums of squares
    too large for a float) every label maps to 0: all candidates then
    screen alike and each gets its float loss.
    """
    ratios = [float(y).as_integer_ratio() for y in labels]
    shift = max(d.bit_length() for _, d in ratios)
    exact = [a << (shift - d.bit_length()) for a, d in ratios]
    if shift > 301 or 2 * max(map(abs, exact)).bit_length() + len(exact).bit_length() > 900:
        return [0] * len(exact)
    return exact


def _finite(values) -> bool:
    try:
        return all(map(math.isfinite, values))
    except OverflowError:  # an int beyond the float range
        return False


def _require_finite(i: int, row: tuple, label) -> None:
    if not _finite((*row, label)):
        raise ValueError(f"sample {i} is not finite: {row} -> {label}")


def _group(rows, exact: Sequence[int]) -> list[tuple]:
    """(row, count, sum, sum of squares, largest magnitude) of the exact
    labels of each distinct row, in order of first appearance."""
    stats: dict = {}
    for row, a in zip(rows, exact):
        acc = stats.get(row)
        if acc is None:
            stats[row] = [1, a, a * a, abs(a)]
        else:
            acc[0] += 1
            acc[1] += a
            acc[2] += a * a
            if abs(a) > acc[3]:
                acc[3] = abs(a)
    return [(row, *acc) for row, acc in stats.items()]


def _screen(groups, feature: int) -> list[tuple[float, float]]:
    """(threshold, scaled sum of squared deviations) for each candidate.

    One pass over the node's distinct rows (``_group``) adds up count, sum
    and sum of squares of the exact labels for each distinct value; walking
    the sorted values then gives each side's exact SSE as (k*Q - S*S) / k,
    rounded only by the final divisions.  The sums are integers, so they do
    not depend on the order of the rows.  The result is the split's SSE
    times the square of ``_exact``'s scale.
    """
    sums: dict = {}
    for row, c, sv, qv, _ in groups:
        v = row[feature]
        acc = sums.get(v)
        if acc is None:
            sums[v] = [c, sv, qv]
        else:
            acc[0] += c
            acc[1] += sv
            acc[2] += qv
    values = sorted(sums)
    n, s_all, q_all = map(sum, zip(*sums.values()))
    k = s = q = 0
    below = 0
    out = []
    for lo, hi in zip(values, values[1:]):
        threshold = (lo + hi) / 2.0
        while below < len(values) and values[below] <= threshold:
            c, sv, qv = sums[values[below]]
            k, s, q = k + c, s + sv, q + qv
            below += 1
        kr = n - k
        if k and kr:  # a midpoint that overflows to inf leaves one side empty
            sr = s_all - s
            out.append((threshold, (k * q - s * s) / k + (kr * (q_all - q) - sr * sr) / kr))
    return out


def _split_loss(rows, labels, feature: int, threshold: float) -> float:
    left = [y for row, y in zip(rows, labels) if row[feature] <= threshold]
    right = [y for row, y in zip(rows, labels) if row[feature] > threshold]
    return (len(left) * _mse(left) + len(right) * _mse(right)) / len(rows)


def _best_split(rows, labels, groups, features) -> Optional[SplitCandidate]:
    """The split ``_split_loss`` ranks first, confirming only near-minimal ones.

    Candidates go in (feature, threshold) order, and a later one wins only
    with a strictly lower float loss, as when every one is evaluated.

    The screened value s of a candidate is D^2 E (1 + t), |t| <= 2u, for
    its exact SSE E, the label scale D of ``_exact`` and u = 2^-53: two
    correctly rounded divisions and one addition.  Its float loss L obeys
    E (1 - g) <= n L <= (E + A)(1 + g) with g = gamma_(n+6).
    Relative part: each squared deviation is rounded 3 times, the
    left-to-right sum of k nonnegative terms adds k - 1 roundings, and the
    division by k, the weighting by k, the sum of the sides and the division
    by n one each.  Absolute part: a side whose mean is off by d has squared
    deviations summing to its exact SSE plus k d^2, and |d| <= gamma_k M <=
    2 (n + 2) u M for the largest label magnitude M, so 0 <= A <=
    n (2 (n + 2) u M)^2.  So a candidate whose L can be no higher than that
    of the screened minimum s* has s <= (s* + D^2 A)(1 + 2g + 4u + O(u^2));
    the factor 1 + (n + 16) 2^-50 exceeds that with room for the rounding of
    the band itself.  ``_exact`` keeps the labels in a range where no step
    underflows or overflows.  Candidates outside the band can neither be
    the minimum nor tie it.
    """
    screened = [(f, t, e) for f in features for t, e in _screen(groups, f)]
    if not screened:
        return None
    n = len(rows)
    scale = 2.0 * (n + 2) * 2.0 ** -53 * max(g[4] for g in groups)
    band = (min(e for _, _, e in screened) + n * scale * scale) * (1.0 + (n + 16) * 2.0 ** -50)
    best: Optional[SplitCandidate] = None
    for f, threshold, e in screened:
        if e <= band:
            loss = _split_loss(rows, labels, f, threshold)
            if best is None or loss < best.loss:
                best = SplitCandidate(feature_index=f, threshold=threshold, loss=loss)
    return best


def best_split(
    rows: Sequence[Sequence[float]], labels: Sequence[float], feature: int
) -> Optional[SplitCandidate]:
    """Minimal-loss threshold for one feature, or None if it is constant.

    Candidate thresholds are midpoints between consecutive distinct sorted
    values; a row goes left when its value is <= the threshold.  The loss
    is the size-weighted mean of the sides' ``_mse``, and the first
    threshold with the lowest loss wins.  An exact integer screen over the
    distinct rows costs O(G log G); only thresholds within a proven
    rounding band of the screened minimum get the O(n) float loss, usually
    one or a few.  A value that is not finite raises ValueError, as in fit.
    """
    rows = [tuple(row) for row in rows]
    for i, sample in enumerate(zip(rows, labels)):
        _require_finite(i, *sample)
    groups = _group(rows, _exact(labels))
    return _best_split(rows, labels, groups, (feature,))


def _grow(rows, labels, groups, depth: int, max_depth: int) -> TreeNode:
    node = TreeNode(
        sample_count=len(labels), node_mse=_mse(labels), prediction=_mean(labels)
    )
    if depth >= max_depth or len(labels) < 2 or min(labels) == max(labels):
        return node
    # ties: lowest loss, feature index, threshold
    chosen = _best_split(rows, labels, groups, range(len(rows[0])))
    if chosen is None:
        return node
    f, s = chosen.feature_index, chosen.threshold
    left_idx = [i for i, row in enumerate(rows) if row[f] <= s]
    right_idx = [i for i, row in enumerate(rows) if row[f] > s]
    node.split = chosen
    node.left = _grow([rows[i] for i in left_idx], [labels[i] for i in left_idx],
                      [g for g in groups if g[0][f] <= s], depth + 1, max_depth)
    node.right = _grow([rows[i] for i in right_idx], [labels[i] for i in right_idx],
                       [g for g in groups if g[0][f] > s], depth + 1, max_depth)
    return node


@dataclass
class RegressionTree:
    root: TreeNode
    target: str                      # "depth" or "swaps"
    max_depth: int
    feature_names: tuple[str, ...] = FEATURE_NAMES

    def predict(self, features) -> int:
        """Integer prediction: walk the tree, round the leaf mean half-up."""
        row = features.as_tuple() if isinstance(features, FeatureVector) else features
        node = self.root
        split = node.split
        while split is not None:
            node = node.left if row[split.feature_index] <= split.threshold else node.right
            split = node.split
        return max(0, math.floor(node.prediction + 0.5))

    def feature_importance(self) -> list[float]:
        """Per-feature total spread reduction, normalized to sum to one."""
        raw = [0.0] * len(self.feature_names)
        for node in _splits(self.root):
            n = node.sample_count
            reduction = (
                node.node_mse
                - (node.left.sample_count / n) * node.left.node_mse
                - (node.right.sample_count / n) * node.right.node_mse
            )
            raw[node.split.feature_index] += reduction
        total = ordered_sum(raw)
        if total <= 0.0:
            return [0.0] * len(self.feature_names)
        return [w / total for w in raw]

    def to_json(self) -> str:
        return json.dumps(
            {
                "target": self.target,
                "max_depth": self.max_depth,
                "feature_names": list(self.feature_names),
                "root": self.root.to_dict(),
            },
            indent=2,
        )

    @staticmethod
    def from_json(text: str) -> "RegressionTree":
        """Inverse of :meth:`to_json`; a malformed model raises ValueError."""
        doc = json.loads(text)
        try:
            tree = RegressionTree(
                root=TreeNode.from_dict(doc["root"]),
                target=doc["target"],
                max_depth=int(doc["max_depth"]),
                feature_names=tuple(doc["feature_names"]),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"bad model: {exc!r}") from None
        for node in _splits(tree.root):
            if not 0 <= node.split.feature_index < len(tree.feature_names):
                raise ValueError(f"model splits on feature {node.split.feature_index}"
                                 f" of {len(tree.feature_names)}")
        return tree

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    @staticmethod
    def load(path) -> "RegressionTree":
        with open(path, "r", encoding="utf-8") as fh:
            return RegressionTree.from_json(fh.read())


def fit(
    rows: Sequence[Sequence[float]],
    labels: Sequence[float],
    target: str = "depth",
    max_depth: int = DEFAULT_MAX_DEPTH,
    feature_names: tuple[str, ...] = FEATURE_NAMES,
) -> RegressionTree:
    """Grow a tree on feature rows and numeric labels, all finite floats;
    each row holds one value per name in ``feature_names``.

    The samples are grouped by row once (``_group``): split screening works
    on the distinct rows, and each child takes the groups on its side.
    """
    if not rows:
        raise ValueError("cannot fit a regression tree on an empty dataset")
    if len(rows) != len(labels):
        raise ValueError("rows and labels must have equal length")
    if max_depth < 0:
        raise ValueError(f"max_depth must be at least 0, not {max_depth}")
    rows = [tuple(r) for r in rows]
    labels = list(labels)
    groups = _group(rows, _exact(labels)) if _finite(labels) else []
    if not (groups and all(len(g[0]) == len(feature_names) and _finite(g[0]) for g in groups)):
        for i, (row, label) in enumerate(zip(rows, labels)):
            if len(row) != len(feature_names):
                raise ValueError(f"sample {i} has {len(row)} features, but feature_names"
                                 f" has {len(feature_names)}: {row}")
            _require_finite(i, row, label)
    root = _grow(rows, labels, groups, 0, max_depth)
    return RegressionTree(
        root=root, target=target, max_depth=max_depth, feature_names=feature_names
    )
