"""Random forest classifier (bagged CART trees).

Random forests are the single most common model in the surveyed
literature (SmartHome, SmartDetect, IIoT, Zeek-logs all use one), so this
is the workhorse classifier of the reproduction.  All trees of a forest
grow in lock-step through :func:`repro.ml.tree.grow_trees`, one split
search per step for the whole forest; each tree is the one it would be
if it were fitted alone on its bootstrap sample with its own seed.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, check_array, check_random_state, check_X_y
from repro.ml.tree import DecisionTreeClassifier, grow_trees


class RandomForestClassifier(BaseEstimator):
    """Bootstrap-aggregated decision trees with feature subsampling.

    Probability predictions average the per-tree leaf distributions
    (soft voting), which is also what sklearn does.
    """

    def __init__(
        self,
        n_estimators: int = 30,
        max_depth: int | None = None,
        min_samples_leaf: int = 1,
        max_features: int | str | None = "sqrt",
        criterion: str = "gini",
        bootstrap: bool = True,
        seed: int | None = 0,
    ) -> None:
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.criterion = criterion
        self.bootstrap = bootstrap
        self.seed = seed

    def fit(self, X, y) -> "RandomForestClassifier":
        array, labels = check_X_y(X, y)
        if self.n_estimators < 1:
            raise ValueError("need at least one tree")
        rng = check_random_state(self.seed)
        self.classes_ = np.unique(labels)
        self.n_features_ = array.shape[1]
        self.trees_: list[DecisionTreeClassifier] = []
        samples: list[np.ndarray] = []
        n = len(labels)
        for i in range(self.n_estimators):
            if self.bootstrap:
                indices = rng.integers(0, n, size=n)
            else:
                indices = np.arange(n)
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                criterion=self.criterion,
                seed=int(rng.integers(0, 2**31 - 1)),
            )
            samples.append(indices)
            self.trees_.append(tree)
        grow_trees(self.trees_, array, labels, samples)
        return self

    def predict_proba(self, X) -> np.ndarray:
        self._check_fitted("trees_")
        array = check_array(X, allow_empty=True)
        out = np.zeros((len(array), len(self.classes_)))
        for tree in self.trees_:
            proba = tree.predict_proba(array)
            # A bootstrap sample can miss a class entirely; align columns.
            for j, value in enumerate(tree.classes_):
                column = int(np.searchsorted(self.classes_, value))
                out[:, column] += proba[:, j]
        return out / len(self.trees_)

    def predict(self, X) -> np.ndarray:
        probabilities = self.predict_proba(X)
        return self.classes_[np.argmax(probabilities, axis=1)]

    def feature_importances(self) -> np.ndarray:
        """Mean of per-tree split-count importances."""
        self._check_fitted("trees_")
        return np.mean([tree.feature_importances() for tree in self.trees_], axis=0)
