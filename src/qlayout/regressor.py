"""Regression trees for seeding the layout search.

A from-scratch CART: splits minimize the size-weighted mean of the two
sides' within-side squared deviation, thresholds sit at midpoints between
consecutive distinct feature values, and growth stops at a depth cap, at
nodes smaller than two samples, or at zero spread.  Trees serialize to a
plain JSON document and report per-feature importances as normalized
spread reductions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .features import FEATURE_NAMES, FeatureVector, ordered_sum

DEFAULT_MAX_DEPTH = 5


def _mean(values: Sequence[float]) -> float:
    return ordered_sum(values) / len(values)


def _mse(values: Sequence[float]) -> float:
    """Mean squared deviation from the mean."""
    m = _mean(values)
    # ordered_sum's left-to-right loop, inlined: this runs for every
    # candidate threshold, and a generator would slow fitting by about 15%.
    total = 0.0
    for v in values:
        total += (v - m) ** 2
    return total / len(values)


@dataclass(frozen=True)
class SplitCandidate:
    feature_index: int
    threshold: float
    loss: float          # size-weighted mean of the two side losses
    left_count: int
    right_count: int
    left_loss: float
    right_loss: float


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
        if self.is_leaf:
            return {
                "kind": "leaf",
                "count": self.sample_count,
                "mse": self.node_mse,
                "prediction": self.prediction,
            }
        return {
            "kind": "split",
            "count": self.sample_count,
            "mse": self.node_mse,
            "prediction": self.prediction,
            "feature": self.split.feature_index,
            "threshold": self.split.threshold,
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }

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
                left_count=0,
                right_count=0,
                left_loss=math.nan,
                right_loss=math.nan,
            )
            node.left = TreeNode.from_dict(doc["left"])
            node.right = TreeNode.from_dict(doc["right"])
        return node


def best_split(
    rows: Sequence[Sequence[float]], labels: Sequence[float], feature: int
) -> Optional[SplitCandidate]:
    """Minimal-loss threshold for one feature, or None if it is constant.

    Candidate thresholds are midpoints between consecutive distinct sorted
    values; a row goes left when its value is <= the threshold.
    """
    values = sorted({row[feature] for row in rows})
    if len(values) < 2:
        return None
    n = len(rows)
    best: Optional[SplitCandidate] = None
    for lo, hi in zip(values, values[1:]):
        threshold = (lo + hi) / 2.0
        left = [y for row, y in zip(rows, labels) if row[feature] <= threshold]
        right = [y for row, y in zip(rows, labels) if row[feature] > threshold]
        left_loss = _mse(left)
        right_loss = _mse(right)
        loss = (len(left) * left_loss + len(right) * right_loss) / n
        if best is None or loss < best.loss:
            best = SplitCandidate(
                feature_index=feature,
                threshold=threshold,
                loss=loss,
                left_count=len(left),
                right_count=len(right),
                left_loss=left_loss,
                right_loss=right_loss,
            )
    return best


def _grow(rows, labels, depth: int, max_depth: int) -> TreeNode:
    node = TreeNode(
        sample_count=len(labels), node_mse=_mse(labels), prediction=_mean(labels)
    )
    if depth >= max_depth or len(labels) < 2 or node.node_mse <= 0.0:
        return node
    chosen: Optional[SplitCandidate] = None
    for f in range(len(rows[0])):  # ties: lowest loss, feature index, threshold
        cand = best_split(rows, labels, f)
        if cand is not None and (chosen is None or cand.loss < chosen.loss):
            chosen = cand
    if chosen is None:
        return node
    f, s = chosen.feature_index, chosen.threshold
    left_idx = [i for i, row in enumerate(rows) if row[f] <= s]
    right_idx = [i for i, row in enumerate(rows) if row[f] > s]
    node.split = chosen
    node.left = _grow(
        [rows[i] for i in left_idx], [labels[i] for i in left_idx], depth + 1, max_depth
    )
    node.right = _grow(
        [rows[i] for i in right_idx], [labels[i] for i in right_idx], depth + 1, max_depth
    )
    return node


@dataclass
class RegressionTree:
    root: TreeNode
    target: str                      # "depth" or "swaps"
    max_depth: int
    feature_names: tuple[str, ...] = FEATURE_NAMES

    def predict(self, features) -> int:
        """Integer prediction: walk the tree, round the leaf mean half-up."""
        row = features.as_tuple() if isinstance(features, FeatureVector) else tuple(features)
        node = self.root
        while not node.is_leaf:
            if row[node.split.feature_index] <= node.split.threshold:
                node = node.left
            else:
                node = node.right
        return max(0, math.floor(node.prediction + 0.5))

    def feature_importance(self) -> list[float]:
        """Per-feature total spread reduction, normalized to sum to one."""
        raw = [0.0] * len(self.feature_names)

        def visit(node: TreeNode):
            if node.is_leaf:
                return
            n = node.sample_count
            reduction = (
                node.node_mse
                - (node.left.sample_count / n) * node.left.node_mse
                - (node.right.sample_count / n) * node.right.node_mse
            )
            raw[node.split.feature_index] += reduction
            visit(node.left)
            visit(node.right)

        visit(self.root)
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
        doc = json.loads(text)
        return RegressionTree(
            root=TreeNode.from_dict(doc["root"]),
            target=doc["target"],
            max_depth=int(doc["max_depth"]),
            feature_names=tuple(doc["feature_names"]),
        )

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
    """Grow a tree on feature rows and numeric labels."""
    if not rows:
        raise ValueError("cannot fit a regression tree on an empty dataset")
    if len(rows) != len(labels):
        raise ValueError("rows and labels must have equal length")
    root = _grow([tuple(r) for r in rows], list(labels), 0, max_depth)
    return RegressionTree(
        root=root, target=target, max_depth=max_depth, feature_names=feature_names
    )
