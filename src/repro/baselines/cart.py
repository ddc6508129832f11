"""From-scratch CART regression trees.

The decision-tree baseline of DiTomaso et al. (MICRO 2016) predicts each
link's timing-error rate from router metrics with trees trained offline.
No sklearn is available in this environment, so this module implements
the Classification And Regression Tree algorithm directly: greedy
binary splits on numeric features minimizing weighted child variance,
with the usual depth / minimum-leaf-size stopping rules.

The implementation is generic (it regresses any ``y`` on any numeric
``X``) and is property-tested against exact-fit and monotonicity
invariants in ``tests/baselines/test_cart.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["TreeNode", "RegressionTree"]


@dataclass
class TreeNode:
    """One node of a fitted tree; leaves carry a prediction."""

    prediction: float
    feature: Optional[int] = None
    threshold: Optional[float] = None
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    # ------------------------------------------------------------------
    # Durable state (checkpoint / artifact round-trips)
    # ------------------------------------------------------------------
    def to_state(self) -> Dict[str, object]:
        """JSON-able nested dict; inverse of :meth:`from_state`."""
        state: Dict[str, object] = {"prediction": self.prediction}
        if not self.is_leaf:
            state["feature"] = self.feature
            state["threshold"] = self.threshold
            state["left"] = self.left.to_state()
            state["right"] = self.right.to_state()
        return state

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "TreeNode":
        """Rebuild a node (and its subtree) from :meth:`to_state`.

        Raises ``ValueError``/``TypeError``/``KeyError`` on a malformed
        snapshot — an internal node missing a child, a non-numeric
        threshold — rather than building a tree that dies at predict().
        """
        prediction = float(state["prediction"])
        if state.get("feature") is None:
            return cls(prediction=prediction)
        feature = int(state["feature"])
        if feature < 0:
            raise ValueError(f"negative feature index {feature}")
        return cls(
            prediction=prediction,
            feature=feature,
            threshold=float(state["threshold"]),
            left=cls.from_state(state["left"]),
            right=cls.from_state(state["right"]),
        )


def _variance_sums(values: Sequence[float]) -> Tuple[float, float]:
    total = sum(values)
    squares = sum(v * v for v in values)
    return total, squares


def _sse(total: float, squares: float, n: int) -> float:
    """Sum of squared errors around the mean, from running sums."""
    if n == 0:
        return 0.0
    return squares - total * total / n


class RegressionTree:
    """CART regression tree with variance-reduction splitting."""

    def __init__(
        self,
        max_depth: int = 6,
        min_samples_leaf: int = 8,
        min_variance_reduction: float = 1e-12,
    ) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be at least 1")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_variance_reduction = min_variance_reduction
        self.root: Optional[TreeNode] = None
        self.n_features: Optional[int] = None

    # ------------------------------------------------------------------
    def fit(self, x: Sequence[Sequence[float]], y: Sequence[float]) -> "RegressionTree":
        if len(x) != len(y):
            raise ValueError("X and y must have the same length")
        if not x:
            raise ValueError("cannot fit on an empty dataset")
        widths = {len(row) for row in x}
        if len(widths) != 1:
            raise ValueError("all feature rows must have the same width")
        self.n_features = widths.pop()
        if self.n_features == 0:
            raise ValueError("need at least one feature")
        indices = list(range(len(x)))
        self.root = self._build(x, y, indices, depth=0)
        return self

    def _build(
        self,
        x: Sequence[Sequence[float]],
        y: Sequence[float],
        indices: List[int],
        depth: int,
    ) -> TreeNode:
        values = [y[i] for i in indices]
        prediction = sum(values) / len(values)
        if depth >= self.max_depth or len(indices) < 2 * self.min_samples_leaf:
            return TreeNode(prediction)

        split = self._best_split(x, y, indices)
        if split is None:
            return TreeNode(prediction)
        feature, threshold, left_idx, right_idx = split
        return TreeNode(
            prediction=prediction,
            feature=feature,
            threshold=threshold,
            left=self._build(x, y, left_idx, depth + 1),
            right=self._build(x, y, right_idx, depth + 1),
        )

    def _best_split(
        self,
        x: Sequence[Sequence[float]],
        y: Sequence[float],
        indices: List[int],
    ) -> Optional[Tuple[int, float, List[int], List[int]]]:
        n = len(indices)
        parent_total, parent_squares = _variance_sums([y[i] for i in indices])
        parent_sse = _sse(parent_total, parent_squares, n)
        best = None
        best_gain = self.min_variance_reduction
        for feature in range(self.n_features):
            order = sorted(indices, key=lambda i: x[i][feature])
            left_total = left_squares = 0.0
            for pos in range(1, n):
                value = y[order[pos - 1]]
                left_total += value
                left_squares += value * value
                # No split between identical feature values.
                if x[order[pos - 1]][feature] == x[order[pos]][feature]:
                    continue
                if pos < self.min_samples_leaf or n - pos < self.min_samples_leaf:
                    continue
                right_total = parent_total - left_total
                right_squares = parent_squares - left_squares
                gain = parent_sse - (
                    _sse(left_total, left_squares, pos)
                    + _sse(right_total, right_squares, n - pos)
                )
                if gain > best_gain:
                    threshold = 0.5 * (
                        x[order[pos - 1]][feature] + x[order[pos]][feature]
                    )
                    best_gain = gain
                    best = (feature, threshold, order[:pos], order[pos:])
        return best

    # ------------------------------------------------------------------
    def predict(self, row: Sequence[float]) -> float:
        if self.root is None:
            raise RuntimeError("tree has not been fitted")
        if len(row) != self.n_features:
            raise ValueError(f"expected {self.n_features} features")
        node = self.root
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        return node.prediction

    @property
    def depth(self) -> int:
        def walk(node: Optional[TreeNode]) -> int:
            if node is None or node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self.root)

    @property
    def n_leaves(self) -> int:
        def walk(node: Optional[TreeNode]) -> int:
            if node is None:
                return 0
            if node.is_leaf:
                return 1
            return walk(node.left) + walk(node.right)

        return walk(self.root)

    # ------------------------------------------------------------------
    # Durable state (checkpoint / artifact round-trips)
    # ------------------------------------------------------------------
    def to_state(self) -> Dict[str, object]:
        """JSON-able snapshot of the hyper-parameters and fitted tree."""
        return {
            "max_depth": self.max_depth,
            "min_samples_leaf": self.min_samples_leaf,
            "min_variance_reduction": self.min_variance_reduction,
            "n_features": self.n_features,
            "root": self.root.to_state() if self.root is not None else None,
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "RegressionTree":
        """Rebuild a tree from :meth:`to_state`; a clone predicts
        identically to the snapshotted original.

        Raises ``ValueError``/``TypeError``/``KeyError`` on malformed
        state, the same contract as :meth:`TreeNode.from_state`.
        """
        tree = cls(
            max_depth=int(state["max_depth"]),
            min_samples_leaf=int(state["min_samples_leaf"]),
            min_variance_reduction=float(state["min_variance_reduction"]),
        )
        n_features = state.get("n_features")
        root = state.get("root")
        if root is not None:
            if n_features is None or int(n_features) < 1:
                raise ValueError("fitted tree state must carry n_features")
            tree.n_features = int(n_features)
            tree.root = TreeNode.from_state(root)
        return tree
