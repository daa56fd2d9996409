"""Gradient-boosted decision trees (binary classification).

Classic Friedman gradient boosting with logistic loss: each round fits
a shallow regression tree to the negative gradient (residual) of the
log-loss and updates the additive model with a shrunk step.  Regression
trees score splits CART's way, with a variance-reduction criterion, but
keep their own depth-limited per-node search: they are shallow, fitted
one at a time, and no matrix cell uses them, so they do not share the
lock-step classification grower of :mod:`repro.ml.tree`.

Several NIDS papers use boosted trees interchangeably with random
forests; this model joins the AutoML portfolio and the AM-synthesis
model zoo.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.base import BaseEstimator, check_array, check_random_state, check_X_y


@dataclass
class _RegressionNode:
    feature: int = -1
    threshold: float = 0.0
    left: int = -1
    right: int = -1
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left < 0


class _RegressionTree:
    """A depth-limited least-squares regression tree."""

    def __init__(self, max_depth: int, min_samples_leaf: int) -> None:
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.nodes: list[_RegressionNode] = []

    def fit(self, X: np.ndarray, residuals: np.ndarray,
            hessians: np.ndarray) -> "_RegressionTree":
        self._X = X
        self._residuals = residuals
        self._hessians = hessians
        self._build(np.arange(len(residuals)), depth=0)
        del self._X, self._residuals, self._hessians
        return self

    def _leaf_value(self, indices: np.ndarray) -> float:
        # Newton step for logistic loss: sum(residual) / sum(hessian)
        denominator = self._hessians[indices].sum()
        if denominator <= 1e-12:
            return 0.0
        return float(self._residuals[indices].sum() / denominator)

    def _build(self, indices: np.ndarray, depth: int) -> int:
        node_id = len(self.nodes)
        node = _RegressionNode(value=self._leaf_value(indices))
        self.nodes.append(node)
        if depth >= self.max_depth or len(indices) < 2 * self.min_samples_leaf:
            return node_id
        split = self._best_split(indices)
        if split is None:
            return node_id
        feature, threshold = split
        mask = self._X[indices, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(indices[mask], depth + 1)
        node.right = self._build(indices[~mask], depth + 1)
        return node_id

    def _best_split(self, indices: np.ndarray) -> tuple[int, float] | None:
        residuals = self._residuals[indices]
        n = len(indices)
        total = residuals.sum()
        total_sq = (residuals**2).sum()
        parent_sse = total_sq - total**2 / n
        best_gain = 1e-12
        best: tuple[int, float] | None = None
        for feature in range(self._X.shape[1]):
            values = self._X[indices, feature]
            order = np.argsort(values, kind="stable")
            sorted_values = values[order]
            sorted_residuals = residuals[order]
            prefix = np.cumsum(sorted_residuals)
            prefix_sq = np.cumsum(sorted_residuals**2)
            boundaries = np.flatnonzero(sorted_values[:-1] < sorted_values[1:])
            if boundaries.size == 0:
                continue
            left_n = boundaries + 1
            right_n = n - left_n
            valid = (left_n >= self.min_samples_leaf) & (
                right_n >= self.min_samples_leaf
            )
            if not valid.any():
                continue
            boundaries = boundaries[valid]
            left_n = (boundaries + 1).astype(np.float64)
            right_n = n - left_n
            left_sum = prefix[boundaries]
            left_sq = prefix_sq[boundaries]
            left_sse = left_sq - left_sum**2 / left_n
            right_sum = total - left_sum
            right_sq = total_sq - left_sq
            right_sse = right_sq - right_sum**2 / right_n
            gains = parent_sse - (left_sse + right_sse)
            best_idx = int(np.argmax(gains))
            if gains[best_idx] > best_gain:
                best_gain = float(gains[best_idx])
                boundary = boundaries[best_idx]
                threshold = (sorted_values[boundary] + sorted_values[boundary + 1]) / 2.0
                best = (feature, float(threshold))
        return best

    def predict(self, X: np.ndarray) -> np.ndarray:
        out = np.empty(len(X))
        stack = [(0, np.arange(len(X)))]
        while stack:
            node_id, indices = stack.pop()
            node = self.nodes[node_id]
            if node.is_leaf:
                out[indices] = node.value
                continue
            mask = X[indices, node.feature] <= node.threshold
            left_idx, right_idx = indices[mask], indices[~mask]
            if left_idx.size:
                stack.append((node.left, left_idx))
            if right_idx.size:
                stack.append((node.right, right_idx))
        return out


class GradientBoostingClassifier(BaseEstimator):
    """Binary gradient boosting with logistic loss and Newton leaves."""

    def __init__(
        self,
        n_estimators: int = 50,
        learning_rate: float = 0.2,
        max_depth: int = 3,
        min_samples_leaf: int = 2,
        subsample: float = 1.0,
        seed: int | None = 0,
    ) -> None:
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self.seed = seed

    def fit(self, X, y) -> "GradientBoostingClassifier":
        array, labels = check_X_y(X, y)
        self.classes_ = np.unique(labels)
        if len(self.classes_) > 2:
            raise ValueError("binary classification only")
        if not 0.0 < self.subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        if len(self.classes_) == 1:
            self._constant = float(self.classes_[0])
            self.trees_: list[_RegressionTree] = []
            self.base_score_ = 0.0
            return self
        self._constant = None
        target = (labels == self.classes_[1]).astype(np.float64)
        prior = np.clip(target.mean(), 1e-6, 1 - 1e-6)
        self.base_score_ = float(np.log(prior / (1 - prior)))
        rng = check_random_state(self.seed)
        raw = np.full(len(target), self.base_score_)
        self.trees_ = []
        n = len(target)
        for _ in range(self.n_estimators):
            probabilities = 1.0 / (1.0 + np.exp(-raw))
            residuals = target - probabilities
            hessians = probabilities * (1.0 - probabilities)
            if self.subsample < 1.0:
                take = rng.choice(n, size=max(int(n * self.subsample), 1),
                                  replace=False)
            else:
                take = np.arange(n)
            tree = _RegressionTree(self.max_depth, self.min_samples_leaf)
            tree.fit(array[take], residuals[take], hessians[take])
            raw += self.learning_rate * tree.predict(array)
            self.trees_.append(tree)
        return self

    def decision_function(self, X) -> np.ndarray:
        self._check_fitted("trees_")
        array = check_array(X, allow_empty=True)
        if self._constant is not None:
            return np.zeros(len(array))
        raw = np.full(len(array), self.base_score_)
        for tree in self.trees_:
            raw += self.learning_rate * tree.predict(array)
        return raw

    def predict_proba(self, X) -> np.ndarray:
        raw = self.decision_function(X)
        positive = 1.0 / (1.0 + np.exp(-raw))
        if self._constant is not None:
            return np.ones((len(raw), 1))
        return np.column_stack([1.0 - positive, positive])

    def predict(self, X) -> np.ndarray:
        raw = self.decision_function(X)
        if self._constant is not None:
            return np.full(len(raw), self.classes_[0])
        return np.where(raw >= 0.0, self.classes_[1], self.classes_[0])
