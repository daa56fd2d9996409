"""RBF kernel and its two classic approximations.

Algorithm A07 (Efficient One-Class SVM, Yang et al.) studies exactly this
trade-off: the exact kernel OCSVM versus Nystrom-approximated features
fed to cheap models (GMM, linear OCSVM) -- our A08/A09.  Both
approximations are implemented here.

Both pick gamma with :func:`median_heuristic_gamma` when none is given.
It needs the squared distance of every pair of (up to 500) sampled rows,
and computes them without an (n, n, d) or (n, n) array:

* *Upper triangle only.*  ``(a - b) ** 2`` and ``(b - a) ** 2`` are the
  same float, so the positive entries of the full distance matrix are
  the positive i < j distances ``u``, each present twice.
* *Bounded tiles.*  Rows are taken a tile at a time against every later
  row.  A tile's difference block holds at most ``_TILE_BYTES`` unless
  two rows alone exceed it.  Each pair is still
  ``((a - b) ** 2).sum(axis=-1)``, on a block laid out as the full
  broadcast lays it out (feature axis last for a C-ordered input), so
  every distance is the same float as in the full broadcast.
* *The median of the doubled set.*  ``np.median`` of the full matrix's
  ``2m`` positives is the ``np.mean`` of its middle two, which are
  order statistics ``(m - 1) // 2`` and ``m // 2`` of ``u``.  That mean
  is taken as ``np.median`` takes it: ``np.median(u)`` is not the same
  number.  For ``[[0], [1e154]]`` the doubled set's two middle values sum
  past the float maximum, the median is ``inf`` and gamma is 0.0, where
  ``np.median(u)`` would give 1e-308.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, check_array, check_random_state


def rbf_kernel(X: np.ndarray, Y: np.ndarray, gamma: float) -> np.ndarray:
    """Exact RBF (Gaussian) kernel matrix: exp(-gamma * ||x - y||^2)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
    x_norms = (X**2).sum(axis=1)[:, None]
    y_norms = (Y**2).sum(axis=1)[None, :]
    squared = np.maximum(x_norms + y_norms - 2.0 * X @ Y.T, 0.0)
    return np.exp(-gamma * squared)


# Byte budget of one tile's difference block in median_heuristic_gamma.
_TILE_BYTES = 2 << 20


def _tile_rows(n: int, d: int) -> int:
    """Rows per tile: a tile of n - 1 columns by d features in budget.

    Never fewer than two, so that no tile is a single (1, 1, d) pair:
    numpy lays such a block out in C order whatever the input's layout,
    where the full tensor of a Fortran-ordered input keeps the feature
    axis outermost and sums it in another order.
    """
    return max(2, _TILE_BYTES // (8 * max(d, 1) * max(n - 1, 1)))


def median_heuristic_gamma(X: np.ndarray, *, max_samples: int = 500, seed: int = 0) -> float:
    """The median pairwise-distance heuristic for choosing gamma.

    Equal, to the bit, to ``1 / np.median`` of the positive entries of
    the full squared-distance matrix (see the module docstring).
    """
    array = np.atleast_2d(np.asarray(X, dtype=np.float64))
    rng = check_random_state(seed)
    if len(array) > max_samples:
        array = array[rng.choice(len(array), max_samples, replace=False)]
    n, d = array.shape
    positives = np.empty(n * (n - 1) // 2)
    count = 0
    rows = _tile_rows(n, d)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        diffs = array[start:stop, None, :] - array[None, start + 1 :, :]
        diffs **= 2
        squared = diffs.sum(axis=-1)
        del diffs  # freed before the next tile allocates its block
        # tile row k is row start + k; column c is row start + 1 + c
        upper = np.arange(squared.shape[1]) >= np.arange(stop - start)[:, None]
        values = squared[upper & (squared > 0)]
        positives[count : count + len(values)] = values
        count += len(values)
    if count == 0:
        return 1.0
    positives = positives[:count]
    low, high = (count - 1) // 2, count // 2
    positives.partition((low, high))
    median = float(np.mean(positives[[low, high]]))
    return 1.0 / max(median, 1e-12)


class RandomFourierFeatures(BaseEstimator):
    """Rahimi-Recht random features approximating the RBF kernel.

    ``transform(X) @ transform(Y).T`` converges to ``rbf_kernel(X, Y)``
    as ``n_components`` grows.
    """

    def __init__(
        self, n_components: int = 128, gamma: float | None = None, seed: int = 0
    ) -> None:
        self.n_components = n_components
        self.gamma = gamma
        self.seed = seed

    def fit(self, X) -> "RandomFourierFeatures":
        array = check_array(X)
        gamma = self.gamma if self.gamma is not None else median_heuristic_gamma(array, seed=self.seed)
        rng = check_random_state(self.seed)
        self.gamma_ = gamma
        self.weights_ = rng.normal(
            scale=np.sqrt(2.0 * gamma), size=(array.shape[1], self.n_components)
        )
        self.offsets_ = rng.uniform(0.0, 2.0 * np.pi, size=self.n_components)
        return self

    def transform(self, X) -> np.ndarray:
        self._check_fitted("weights_")
        array = check_array(X, allow_empty=True)
        projection = array @ self.weights_ + self.offsets_
        return np.sqrt(2.0 / self.n_components) * np.cos(projection)

    def fit_transform(self, X) -> np.ndarray:
        return self.fit(X).transform(X)


class Nystroem(BaseEstimator):
    """Nystrom low-rank approximation of the RBF kernel map.

    Landmarks are sampled from the training data; the feature map is
    ``K(x, landmarks) @ W^(-1/2)`` with ``W`` the landmark kernel matrix
    (pseudo-inverted for numerical robustness).
    """

    def __init__(
        self, n_components: int = 64, gamma: float | None = None, seed: int = 0
    ) -> None:
        self.n_components = n_components
        self.gamma = gamma
        self.seed = seed

    def fit(self, X) -> "Nystroem":
        array = check_array(X)
        rng = check_random_state(self.seed)
        n_landmarks = min(self.n_components, len(array))
        indices = rng.choice(len(array), n_landmarks, replace=False)
        self.landmarks_ = array[indices]
        self.gamma_ = (
            self.gamma
            if self.gamma is not None
            else median_heuristic_gamma(array, seed=self.seed)
        )
        landmark_kernel = rbf_kernel(self.landmarks_, self.landmarks_, self.gamma_)
        eigenvalues, eigenvectors = np.linalg.eigh(landmark_kernel)
        keep = eigenvalues > 1e-10
        inv_sqrt = eigenvectors[:, keep] / np.sqrt(eigenvalues[keep])
        self.normalization_ = inv_sqrt
        return self

    def transform(self, X) -> np.ndarray:
        self._check_fitted("landmarks_")
        array = check_array(X, allow_empty=True)
        return rbf_kernel(array, self.landmarks_, self.gamma_) @ self.normalization_

    def fit_transform(self, X) -> np.ndarray:
        return self.fit(X).transform(X)
