"""The lock-step split search holds no larger transient than it needs.

tracemalloc's peak over the matrix slice's largest forest fit is pinned:
A10's 30-tree forest on F0's 3,414 x 10 feature rows, two classes.  The
grower before the per-class prefix counts peaked at 13.7 MiB over this
fit (12.0 MiB inside ``grow_trees``); it peaks at ~11.0 MiB now.
"""

import tracemalloc

from repro.algorithms import build_algorithm
from repro.core import ExecutionEngine
from repro.datasets import load_dataset
from repro.ml import RandomForestClassifier

MIB = 2**20


def traced_peak(call) -> int:
    """The peak bytes tracemalloc traces while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a10_forest_fit_on_f0():
    spec = build_algorithm("A10")
    X, y = spec.featurize(load_dataset("F0"), ExecutionEngine(), source_token="F0")
    model = spec.build_model()
    assert X.shape == (3414, 10)
    assert isinstance(model, RandomForestClassifier) and model.n_estimators == 30
    assert traced_peak(lambda: model.fit(X, y)) < 12.0 * MIB
