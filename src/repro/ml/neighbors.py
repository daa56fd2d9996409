"""k-nearest-neighbours classifier (exact brute-force search in numpy).

Used as a member of the ML-DDoS voting ensemble (algorithm A00) and as a
candidate family in the AutoML grid.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, check_array, check_X_y

#: bytes of ranking keys one tile of queries may hold
_TILE_BYTES = 4 << 20
#: groups of training rows whose minima bound each query's k-th key
_GROUPS = 64


def _squared_distances(
    a: np.ndarray, b: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Squared Euclidean distances between ``a[rows]`` and ``b[cols]``.

    Summed in the order of ``cKDTree``'s distance kernel, so the
    distances equal its own bit for bit: four running lanes over each
    block of four features, combined as ``((a0 + a1) + a2) + a3``, then
    the leftover features one at a time.  Gathered a block at a time,
    so many candidates of wide rows stay small.
    """
    d = a.shape[1]
    blocked = d - d % 4
    lanes = np.zeros((len(rows), 4))
    for j in range(0, blocked, 4):
        lanes += (a[rows, j:j + 4] - b[cols, j:j + 4]) ** 2
    total = ((lanes[:, 0] + lanes[:, 1]) + lanes[:, 2]) + lanes[:, 3]
    for j in range(blocked, d):
        total += (a[rows, j] - b[cols, j]) ** 2
    return total


class KNeighborsClassifier(BaseEstimator):
    """Majority vote over the k nearest training samples.

    ``weights`` is either ``"uniform"`` or ``"distance"`` (inverse
    distance, with exact matches dominating).  The search is exact: an
    exact tie at the k-th distance goes to the lowest training index.
    """

    def __init__(self, n_neighbors: int = 5, weights: str = "uniform") -> None:
        self.n_neighbors = n_neighbors
        self.weights = weights

    def fit(self, X, y) -> "KNeighborsClassifier":
        array, labels = check_X_y(X, y)
        if self.n_neighbors < 1:
            raise ValueError("n_neighbors must be positive")
        if self.weights not in ("uniform", "distance"):
            raise ValueError(f"unknown weights: {self.weights!r}")
        self.classes_, self._encoded = np.unique(labels, return_inverse=True)
        # The search runs over distinct rows, in order of first
        # occurrence; a row's copies (training indices, ascending) join
        # after it, so many copies of one row cost no more than one.
        _, first, inverse, counts = np.unique(
            array, axis=0, return_index=True, return_inverse=True,
            return_counts=True,
        )
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        self._rows = array[first[order]]
        self._copies = np.argsort(rank[inverse.reshape(-1)], kind="stable")
        self._counts = counts[order]
        self._starts = np.cumsum(self._counts) - self._counts
        return self

    def _kneighbors(self, array: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Distances and training indices of each row's k nearest, nearest
        first (equal distances by training index).

        One matrix product per tile of queries ranks the distinct
        training rows by ``key = |x|^2 / 2 - q.x``, half the squared
        distance less a per-query constant.  Each key, and each exactly
        summed distance halved, is within ``slack / 2`` of that true
        value.  So every row whose exact distance is among the k
        smallest, ties included, has a key within ``slack`` of the k-th
        smallest key, and of any bound above it: the k-th smallest of
        the group minima is one.  Those candidates' distances are then
        summed exactly, and their first k copies sorted.
        """
        train = self._rows
        n, d = train.shape
        kth = min(k, n) - 1
        groups = max(_GROUPS, k)
        slabs = -(-n // groups)
        norms = np.einsum("ij,ij->i", train, train)
        ranked = np.zeros((slabs * groups, d + 1))
        ranked[:n, :d] = train
        ranked[:n, d] = norms / 2
        reach = np.sqrt(norms.max())
        eps, tiny = np.finfo(np.float64).eps, np.finfo(np.float64).tiny
        step = max(1, _TILE_BYTES // (8 * len(ranked)))
        distances = np.empty((len(array), k))
        indices = np.empty((len(array), k), dtype=np.intp)
        for start in range(0, len(array), step):
            queries = array[start:start + step]
            m = len(queries)
            probe = np.ones((d + 1, m))
            probe[:d] = -queries.T
            key = ranked @ probe
            key[n:] = np.inf
            minima = key.reshape(slabs, groups, m).min(axis=0)
            bound = np.partition(minima, kth, axis=0)[kth]
            lengths = np.sqrt(np.einsum("ij,ij->i", queries, queries))
            slack = 2 * (d + 3) * (eps * (lengths + reach) ** 2 + tiny)
            candidate, row = np.divmod(np.flatnonzero(key[:n] <= bound + slack), m)
            exact = _squared_distances(queries, train, row, candidate)
            copies = np.minimum(self._counts[candidate], k)
            which = np.repeat(np.arange(len(candidate)), copies)
            offset = np.arange(len(which)) - np.repeat(np.cumsum(copies) - copies, copies)
            point = self._copies[self._starts[candidate][which] + offset]
            row, exact = row[which], exact[which]
            order = np.lexsort((point, exact, row))
            counts = np.bincount(row, minlength=m)
            first = np.cumsum(counts) - counts
            pick = order[first[:, None] + np.arange(k)]
            distances[start:start + m] = np.sqrt(exact[pick])
            indices[start:start + m] = point[pick]
        return distances, indices

    def predict_proba(self, X) -> np.ndarray:
        self._check_fitted("_rows")
        array = check_array(X, allow_empty=True)
        k = min(self.n_neighbors, len(self._encoded))
        distances, indices = self._kneighbors(array, k)
        neighbor_labels = self._encoded[indices]
        n_classes = len(self.classes_)
        if self.weights == "distance":
            # Exact matches get an effectively infinite weight.
            weights = 1.0 / np.maximum(distances, 1e-12)
        else:
            weights = np.ones_like(distances)
        out = np.zeros((len(array), n_classes))
        for c in range(n_classes):
            out[:, c] = np.where(neighbor_labels == c, weights, 0.0).sum(axis=1)
        totals = out.sum(axis=1, keepdims=True)
        return out / np.maximum(totals, 1e-300)

    def predict(self, X) -> np.ndarray:
        probabilities = self.predict_proba(X)
        return self.classes_[np.argmax(probabilities, axis=1)]
