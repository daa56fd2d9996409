"""The broadcast median heuristic that ``median_heuristic_gamma`` must match.

``median_heuristic_gamma`` is the median-distance gamma as
:mod:`repro.ml.kernels` computed it before it walked the upper triangle
in bounded tiles: one (n, n, d) difference tensor, its square, and
``np.median`` over every positive entry of the (n, n) result.  Tests
import this module as ``tests.ml.kernels_oracle``.
"""

import numpy as np

from repro.ml.base import check_random_state


def median_heuristic_gamma(X: np.ndarray, *, max_samples: int = 500, seed: int = 0) -> float:
    """The median pairwise-distance heuristic for choosing gamma."""
    array = np.atleast_2d(np.asarray(X, dtype=np.float64))
    rng = check_random_state(seed)
    if len(array) > max_samples:
        array = array[rng.choice(len(array), max_samples, replace=False)]
    diffs = array[:, None, :] - array[None, :, :]
    squared = (diffs**2).sum(axis=-1)
    median = float(np.median(squared[squared > 0])) if (squared > 0).any() else 1.0
    return 1.0 / max(median, 1e-12)
