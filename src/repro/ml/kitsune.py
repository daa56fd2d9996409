"""KitNET: the Kitsune ensemble-of-autoencoders anomaly detector.

Kitsune (Mirsky et al., NDSS'18; algorithm A06 in the paper) maps
correlated features into small groups, trains one compact autoencoder
per group, and feeds the per-group reconstruction errors into an output
autoencoder whose RMSE is the final anomaly score.

This implementation keeps the three-stage structure -- feature mapping
via hierarchical clustering on correlation distance (complete linkage
in numpy, equal to the reference ``linkage``/``fcluster``), an ensemble
layer, an output layer -- trained in batch (the incremental statistics
live in the feature pipeline, :mod:`repro.core.incstats`, as in the
original two-part design).  The whole ensemble trains in one loop
(:func:`repro.ml.neural.fit_autoencoders`): members of one width form
one stack, and every stack shares one Adam update per batch.  Each
member is byte-equal to training it alone, and after the fit each is
an ordinary :class:`~repro.ml.neural.Autoencoder`.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, check_array, check_random_state
from repro.ml.neural import Autoencoder, fit_autoencoders


def _complete_linkage(distance: np.ndarray) -> np.ndarray:
    """Complete-linkage dendrogram of a square distance matrix.

    A port of the reference ``linkage(condensed, method="complete")``
    (the tests' oracle), equal to it element for element: the
    nearest-neighbour chain (which keeps the previous chain element
    unless another cluster is strictly nearer, and otherwise takes the
    first nearest index), a stable sort of the merges by height, and
    union-find relabelling.  Only the upper triangle of ``distance`` is
    read, as the condensed input holds it, so an input that is not
    bit-symmetric (``np.corrcoef``'s output) gives the same tree.  Each
    row of the result is ``(left, right, height, size)``; every height
    is an element of ``distance``.
    """
    n = len(distance)
    upper = np.triu(distance, 1)
    current = upper + upper.T
    np.fill_diagonal(current, np.inf)
    active = np.ones(n, dtype=bool)
    merges = []
    chain: list[int] = []
    for _ in range(n - 1):
        if not chain:
            chain.append(int(np.argmax(active)))
        while True:
            x = chain[-1]
            row = np.where(active, current[x], np.inf)
            y = int(np.argmin(row))
            if len(chain) > 1 and current[x, chain[-2]] <= row[y]:
                y = chain[-2]
                break
            chain.append(y)
        del chain[-2:]
        x, y = min(x, y), max(x, y)
        merges.append((x, y, current[x, y]))
        # cluster y becomes the union; its distance to every other
        # cluster is the larger of the two it replaces
        active[x] = False
        current[y] = current[:, y] = np.maximum(current[x], current[y])
        current[y, y] = np.inf
    order = np.argsort([height for _, _, height in merges], kind="mergesort")
    parent = np.arange(2 * n - 1)
    sizes = np.ones(2 * n - 1, dtype=np.int64)
    tree = np.empty((n - 1, 4))

    def root(i: int) -> int:
        while parent[i] != i:
            i = parent[i]
        return i

    for step, merge in enumerate(order):
        x, y, height = merges[merge]
        left, right = sorted((root(x), root(y)))
        parent[left] = parent[right] = n + step
        sizes[n + step] = sizes[left] + sizes[right]
        tree[step] = left, right, height, sizes[n + step]
    return tree


def _maxclust(tree: np.ndarray, t: int) -> np.ndarray:
    """Flat cluster labels (1-based) with at most ``t`` clusters.

    A port of the reference ``fcluster(tree, t, criterion="maxclust")``
    for a complete-linkage ``tree``, whose heights never fall from child
    to parent: the cut merges every step up to the ``n - t``-th smallest
    height (ties may leave fewer than ``t`` clusters).  Clusters are
    numbered in the reference's order: from the root, a node descends
    into its non-singleton children, left then right, before it labels
    its singleton children.  ``t >= n`` labels the points 1..n in index
    order.
    """
    n = len(tree) + 1
    if t >= n:
        return np.arange(1, n + 1)
    cutoff = tree[n - t - 1, 2]
    labels = np.zeros(n, dtype=np.int64)
    count = 0
    # (node, inside a cluster already counted, children pushed yet)
    stack = [(2 * n - 2, False, False)]
    while stack:
        node, inside, expanded = stack.pop()
        left, right, height = tree[node - n, :3]
        left, right = int(left), int(right)
        if not expanded:
            if not inside and height <= cutoff:
                count += 1
                inside = True
            stack.append((node, inside, True))
            stack.extend((child, inside, False) for child in (right, left) if child >= n)
            continue
        for child in (left, right):
            if child < n:
                if not inside:
                    count += 1
                labels[child] = count
    return labels


def correlation_feature_groups(
    X: np.ndarray, max_group_size: int = 10, seed: int = 0
) -> list[list[int]]:
    """Group features by hierarchical clustering on correlation distance.

    Mirrors Kitsune's feature mapper: distance = 1 - |corr|, complete
    linkage, cut so no group exceeds ``max_group_size`` members.  The
    jitter applied to zero-variance columns draws from an explicitly
    seeded generator so the grouping is a pure function of its
    arguments rather than a hidden constant.
    """
    array = np.atleast_2d(np.asarray(X, dtype=np.float64))
    d = array.shape[1]
    if d <= max_group_size:
        return [list(range(d))]
    stds = array.std(axis=0)
    safe = array.copy()
    safe[:, stds == 0.0] += np.random.default_rng(seed).normal(
        scale=1e-9, size=(len(array), int((stds == 0.0).sum()))
    )
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.corrcoef(safe, rowvar=False)
    corr = np.nan_to_num(corr)
    tree = _complete_linkage(1.0 - np.abs(corr))
    # Cut the dendrogram at increasing cluster counts until every group
    # fits the size cap.
    for n_clusters in range(max(2, d // max_group_size), d + 1):
        assignment = _maxclust(tree, n_clusters)
        groups: dict[int, list[int]] = {}
        for feature, cluster in enumerate(assignment):
            groups.setdefault(int(cluster), []).append(feature)
        if max(len(g) for g in groups.values()) <= max_group_size:
            return [groups[key] for key in sorted(groups)]
    return [[i] for i in range(d)]


class KitNET(BaseEstimator):
    """The Kitsune anomaly detector (ensemble + output autoencoders)."""

    def __init__(
        self,
        max_group_size: int = 10,
        hidden_ratio: float = 0.5,
        n_epochs: int = 40,
        quantile: float = 0.98,
        seed: int | None = 0,
    ) -> None:
        self.max_group_size = max_group_size
        self.hidden_ratio = hidden_ratio
        self.n_epochs = n_epochs
        self.quantile = quantile
        self.seed = seed

    def fit(self, X, y=None) -> "KitNET":
        array = check_array(X)
        rng = check_random_state(self.seed)
        self.groups_ = correlation_feature_groups(
            array,
            self.max_group_size,
            # thread the estimator's own seed through (0 when unseeded,
            # matching the previous hard-coded generator bit-for-bit)
            seed=0 if self.seed is None else int(self.seed),
        )
        seeds = [int(rng.integers(0, 2**31 - 1)) for _ in self.groups_]
        self._ensemble = [self._autoencoder(seed) for seed in seeds]
        member_scores = np.column_stack(fit_autoencoders(
            self._ensemble, [array[:, group] for group in self.groups_]
        ))
        self._output = self._autoencoder(int(rng.integers(0, 2**31 - 1)))
        (train_scores,) = fit_autoencoders([self._output], [member_scores])
        self.threshold_ = float(np.quantile(train_scores, self.quantile))
        return self

    def _autoencoder(self, seed: int) -> Autoencoder:
        return Autoencoder(
            hidden_ratio=self.hidden_ratio, n_epochs=self.n_epochs, seed=seed
        )

    def _member_scores(self, array: np.ndarray) -> np.ndarray:
        scores = np.empty((len(array), len(self.groups_)))
        for i, group in enumerate(self.groups_):
            scores[:, i] = self._ensemble[i].score_samples(array[:, group])
        return scores

    def score_samples(self, X) -> np.ndarray:
        """Final anomaly score (output-layer RMSE); larger = more anomalous."""
        self._check_fitted("_output")
        array = check_array(X, allow_empty=True)
        return self._output.score_samples(self._member_scores(array))

    def predict(self, X) -> np.ndarray:
        """1 = anomalous, thresholded at the training-score quantile."""
        return (self.score_samples(X) > self.threshold_).astype(np.int64)
