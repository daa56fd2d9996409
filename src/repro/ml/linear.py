"""Linear classifiers: logistic regression and a linear SVM.

Both are trained with mini-batch gradient descent on standardised
inputs; they are members of the A00 voting ensemble and of the AutoML
candidate set.  Binary classification is all the anomaly-detection task
needs, so multi-class machinery is intentionally absent.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, check_array, check_random_state, check_X_y


def _mean_gradient(weights: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, float]:
    """The batch means of ``weights[:, None] * X`` and of ``weights``.

    ``np.add.reduce(...) / m`` is what ``ndarray.mean`` computes, without
    its per-call bookkeeping.
    """
    m = len(weights)
    return np.add.reduce(weights[:, None] * X, axis=0) / m, float(np.add.reduce(weights) / m)


class _LinearBinaryModel(BaseEstimator):
    """Shared SGD training loop; subclasses define the loss gradient."""

    def __init__(
        self,
        learning_rate: float = 0.1,
        n_epochs: int = 100,
        batch_size: int = 128,
        l2: float = 1e-4,
        seed: int | None = 0,
    ) -> None:
        self.learning_rate = learning_rate
        self.n_epochs = n_epochs
        self.batch_size = batch_size
        self.l2 = l2
        self.seed = seed

    def _gradient(
        self, X: np.ndarray, signs: np.ndarray
    ) -> tuple[np.ndarray, float]:
        raise NotImplementedError

    def fit(self, X, y) -> "_LinearBinaryModel":
        array, labels = check_X_y(X, y)
        self.classes_ = np.unique(labels)
        if len(self.classes_) > 2:
            raise ValueError("linear models here are binary-only")
        if len(self.classes_) == 1:
            # Degenerate but legal: a single-class training set.
            self.coef_ = np.zeros(array.shape[1])
            self.intercept_ = 0.0
            self._mean = np.zeros(array.shape[1])
            self._scale = np.ones(array.shape[1])
            return self
        signs = np.where(labels == self.classes_[1], 1.0, -1.0)
        self._mean = array.mean(axis=0)
        scale = array.std(axis=0)
        scale[scale == 0.0] = 1.0
        self._scale = scale
        scaled = (array - self._mean) / self._scale

        rng = check_random_state(self.seed)
        n, d = scaled.shape
        self.coef_ = np.zeros(d)
        self.intercept_ = 0.0
        for _ in range(self.n_epochs):
            order = rng.permutation(n)
            epoch_rows, epoch_signs = scaled[order], signs[order]
            for start in range(0, n, self.batch_size):
                stop = start + self.batch_size
                grad_w, grad_b = self._gradient(epoch_rows[start:stop], epoch_signs[start:stop])
                grad_w += self.l2 * self.coef_
                self.coef_ -= self.learning_rate * grad_w
                self.intercept_ -= self.learning_rate * grad_b
        return self

    def decision_function(self, X) -> np.ndarray:
        self._check_fitted("coef_")
        array = check_array(X, allow_empty=True)
        scaled = (array - self._mean) / self._scale
        return scaled @ self.coef_ + self.intercept_

    def predict(self, X) -> np.ndarray:
        scores = self.decision_function(X)
        if len(self.classes_) == 1:
            return np.full(len(scores), self.classes_[0])
        return np.where(scores >= 0.0, self.classes_[1], self.classes_[0])


class LogisticRegression(_LinearBinaryModel):
    """Binary logistic regression trained with mini-batch SGD."""

    def _gradient(self, X: np.ndarray, signs: np.ndarray) -> tuple[np.ndarray, float]:
        margins = signs * (X @ self.coef_ + self.intercept_)
        # d/dw of log(1 + exp(-m)) = -sigma(-m) * s * x
        weights = -signs / (1.0 + np.exp(np.clip(margins, -500, 500)))
        return _mean_gradient(weights, X)

    def predict_proba(self, X) -> np.ndarray:
        scores = self.decision_function(X)
        positive = 1.0 / (1.0 + np.exp(-np.clip(scores, -500, 500)))
        if len(self.classes_) == 1:
            return np.ones((len(scores), 1))
        return np.column_stack([1.0 - positive, positive])


class LinearSVC(_LinearBinaryModel):
    """Linear SVM (hinge loss) trained with mini-batch SGD."""

    def _gradient(self, X: np.ndarray, signs: np.ndarray) -> tuple[np.ndarray, float]:
        margins = signs * (X @ self.coef_ + self.intercept_)
        active = margins < 1.0
        if not active.any():
            return np.zeros_like(self.coef_), 0.0
        weights = np.where(active, -signs, 0.0)
        return _mean_gradient(weights, X)
