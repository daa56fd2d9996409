"""Byte-equality of the linear models' mini-batch gradient descent.

``_LinearBinaryModel.fit`` gathers each epoch's permuted rows and signs
once and slices its batches from them, and takes the gradients' batch
means as ``np.add.reduce(...) / m``.  The oracle here is the loop it
replaced: one fancy-indexed gather per batch and ``.mean(axis=0)``.
Both models must end with the same ``coef_`` and ``intercept_`` bytes.
"""

import numpy as np
import pytest

from repro.ml.base import check_random_state
from repro.ml.linear import LinearSVC, LogisticRegression


def logistic_gradient(coef, intercept, X, signs):
    margins = signs * (X @ coef + intercept)
    weights = -signs / (1.0 + np.exp(np.clip(margins, -500, 500)))
    return (weights[:, None] * X).mean(axis=0), float(weights.mean())


def hinge_gradient(coef, intercept, X, signs):
    margins = signs * (X @ coef + intercept)
    active = margins < 1.0
    if not active.any():
        return np.zeros_like(coef), 0.0
    weights = np.where(active, -signs, 0.0)
    return (weights[:, None] * X).mean(axis=0), float(weights.mean())


GRADIENTS = {LogisticRegression: logistic_gradient, LinearSVC: hinge_gradient}


def reference_fit(model, X, y):
    """``(coef_, intercept_)`` of the per-batch gather loop."""
    classes = np.unique(y)
    signs = np.where(y == classes[1], 1.0, -1.0)
    scale = X.std(axis=0)
    scale[scale == 0.0] = 1.0
    scaled = (X - X.mean(axis=0)) / scale
    rng = check_random_state(model.seed)
    n, d = scaled.shape
    coef, intercept = np.zeros(d), 0.0
    gradient = GRADIENTS[type(model)]
    for _ in range(model.n_epochs):
        order = rng.permutation(n)
        for start in range(0, n, model.batch_size):
            batch = order[start : start + model.batch_size]
            grad_w, grad_b = gradient(coef, intercept, scaled[batch], signs[batch])
            grad_w += model.l2 * coef
            coef -= model.learning_rate * grad_w
            intercept -= model.learning_rate * grad_b
    return coef, intercept


def data(seed, n, d):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) * rng.uniform(0.1, 30.0, size=d)
    X[:, 0] = rng.integers(0, 2, size=n)  # a binary column
    y = (X @ rng.normal(size=d) + rng.normal(size=n) > 0).astype(int)
    return X, y


CASES = {
    "default_3000x21": (dict(), (0, 3000, 21)),
    "batch_does_not_divide": (dict(batch_size=100, n_epochs=20), (1, 1234, 7)),
    "one_batch": (dict(batch_size=512, n_epochs=30), (2, 300, 33)),
    "batch_of_one": (dict(batch_size=1, n_epochs=3), (3, 90, 5)),
    "one_column": (dict(n_epochs=40, l2=0.0), (4, 700, 1)),
    "wide": (dict(n_epochs=15, learning_rate=0.5, l2=1e-2, seed=9), (5, 1000, 64)),
}


@pytest.mark.parametrize("model_class", [LogisticRegression, LinearSVC])
@pytest.mark.parametrize("case", sorted(CASES))
def test_fit_matches_the_per_batch_loop(model_class, case):
    params, (seed, n, d) = CASES[case]
    X, y = data(seed, n, d)
    model = model_class(**params).fit(X, y)
    coef, intercept = reference_fit(model, X, y)
    assert model.coef_.tobytes() == coef.tobytes()
    assert np.float64(model.intercept_).tobytes() == np.float64(intercept).tobytes()


def test_separable_data_reaches_zero_hinge_gradients():
    # every margin ends >= 1, so the SVM's batches stop moving it
    X = np.array([[-3.0], [-2.0], [2.0], [3.0]] * 20)
    y = np.array([0, 0, 1, 1] * 20)
    model = LinearSVC(n_epochs=50).fit(X, y)
    coef, intercept = reference_fit(model, X, y)
    assert model.coef_.tobytes() == coef.tobytes()
    assert model.intercept_ == intercept
