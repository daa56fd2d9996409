"""KitNET: the Kitsune ensemble-of-autoencoders anomaly detector.

Kitsune (Mirsky et al., NDSS'18; algorithm A06 in the paper) maps
correlated features into small groups, trains one compact autoencoder
per group, and feeds the per-group reconstruction errors into an output
autoencoder whose RMSE is the final anomaly score.

This implementation keeps the three-stage structure -- feature mapping
via hierarchical clustering on correlation distance, an ensemble layer,
an output layer -- trained in batch (the incremental statistics live in
the feature pipeline, :mod:`repro.core.incstats`, as in the original
two-part design).  The whole ensemble trains in one loop
(:func:`repro.ml.neural.fit_autoencoders`): members of one width form
one stack, and every stack shares one Adam update per batch.  Each
member is byte-equal to training it alone, and after the fit each is
an ordinary :class:`~repro.ml.neural.Autoencoder`.
"""

from __future__ import annotations

import numpy as np
from scipy.cluster.hierarchy import fcluster, linkage

from repro.ml.base import BaseEstimator, check_array, check_random_state
from repro.ml.neural import Autoencoder, fit_autoencoders


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
    distance = 1.0 - np.abs(corr)
    np.fill_diagonal(distance, 0.0)
    condensed = distance[np.triu_indices(d, k=1)]
    tree = linkage(condensed, method="complete")
    # Cut the dendrogram at increasing cluster counts until every group
    # fits the size cap.
    for n_clusters in range(max(2, d // max_group_size), d + 1):
        assignment = fcluster(tree, t=n_clusters, criterion="maxclust")
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
