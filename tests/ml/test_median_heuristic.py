"""The tiled median heuristic against the broadcast oracle.

``median_heuristic_gamma`` walks the upper triangle of the sampled rows'
squared distances in bounded tiles and takes the median of the doubled
set.  ``tests.ml.kernels_oracle`` is the broadcast code it replaced.
Gamma must be the same float (``==``), and every model that picks its
gamma this way must fit to the same bytes.
"""

import pickle
import tracemalloc
from itertools import count

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ml.kernels as kernels
from repro.algorithms import build_algorithm
from repro.bench import BenchmarkRunner
from repro.bench.runner import _featurize_with_attacks
from repro.core import ExecutionEngine
from repro.ml.kernels import (
    Nystroem,
    RandomFourierFeatures,
    _tile_rows,
    median_heuristic_gamma,
)
from repro.ml.model_selection import stratified_split_indices
from repro.ml.svm import KernelOCSVM
from tests.ml import kernels_oracle as oracle

DIMS = (1, 4, 16, 40)


def assert_same_gamma(X, **kwargs) -> float:
    with np.errstate(over="ignore"):
        gamma = median_heuristic_gamma(X, **kwargs)
        expected = oracle.median_heuristic_gamma(X, **kwargs)
    assert gamma == expected
    return gamma


def tile_edges(d: int) -> list[int]:
    """Row counts at which the tiling changes, with their neighbours.

    The first n that takes two tiles, and the first n after it whose
    tiles fill the rows exactly.
    """
    first = next(n for n in count(2) if _tile_rows(n, d) < n)
    exact = next(n for n in count(first) if n % _tile_rows(n, d) == 0)
    return sorted({n + step for n in (first, exact) for step in (-1, 0, 1)})


class TestAgainstOracle:
    @pytest.mark.parametrize("d", DIMS)
    @pytest.mark.parametrize("n", [1, 2, 3, 499, 500, 501, 2000])
    def test_gaussian(self, n, d):
        X = np.random.default_rng(n * 100 + d).normal(size=(n, d))
        assert_same_gamma(X)

    @pytest.mark.parametrize("d", DIMS)
    def test_tile_edges(self, d):
        edges = tile_edges(d)
        assert len(edges) == 6
        rng = np.random.default_rng(d)
        for n in edges:
            X = rng.normal(size=(n, d))
            # no sampling: the tiles see all n rows
            assert_same_gamma(X, max_samples=n)

    @pytest.mark.parametrize("d", DIMS)
    def test_ties(self, d):
        rng = np.random.default_rng(7 + d)
        rounded = np.round(rng.normal(size=(300, d)), 1)
        integers = rng.integers(0, 3, size=(300, d)).astype(np.float64)
        assert_same_gamma(rounded)
        assert_same_gamma(integers)

    def test_repeated_rows(self):
        rows = np.random.default_rng(3).normal(size=(6, 16))
        assert_same_gamma(np.repeat(rows, 40, axis=0))
        assert_same_gamma(np.tile(rows, (90, 1)))

    @pytest.mark.parametrize("shape", [(1, 4), (7, 3), (600, 16)])
    def test_all_equal_rows(self, shape):
        assert assert_same_gamma(np.full(shape, 2.5)) == 1.0

    def test_overflowing_median(self):
        # the doubled set's middle values 1e308 + 1e308 overflow: the
        # median is inf and gamma 0.0, where np.median of the single
        # upper-triangle distance would give 1e-308
        assert assert_same_gamma(np.array([[0.0], [1e154]])) == 0.0
        assert_same_gamma(np.array([[0.0], [1e154], [2e154]]))

    @pytest.mark.parametrize(
        "layout",
        [np.asfortranarray, lambda X: X[::-1, ::-1], lambda X: X[:, ::2]],
        ids=["fortran", "reversed", "strided"],
    )
    @pytest.mark.parametrize("n", [2, 3, 140])
    def test_layouts(self, layout, n):
        X = np.random.default_rng(n).normal(size=(n, 40))
        assert_same_gamma(layout(X))

    def test_rows_wider_than_the_budget(self):
        # one row against the other two overflows the tile budget, so a
        # tile is the two-row minimum and never a lone (1, 1, d) pair
        d = kernels._TILE_BYTES // 16 + 1
        assert _tile_rows(3, d) == 2
        X = np.random.default_rng(5).normal(size=(3, d))
        assert_same_gamma(np.asfortranarray(X))


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 500),
    d=st.integers(1, 24),
    decimals=st.sampled_from([None, 0, 1]),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_order_does_not_change_gamma(n, d, decimals, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    if decimals is not None:
        X = np.round(X, decimals)
    gamma = median_heuristic_gamma(X)
    assert median_heuristic_gamma(X[rng.permutation(n)]) == gamma


# ---------------------------------------------------------------------------
# models fitted on the A07-A09 training matrices
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def training_matrices():
    """A07-A09's training rows of F0 and F4: a same-dataset split's
    training part, and the whole dataset (a cross cell's)."""
    engine = ExecutionEngine(track_memory=False)
    spec = build_algorithm("A07")
    matrices = {}
    for dataset_id in ("F0", "F4"):
        X, y, _, _ = _featurize_with_attacks(spec, dataset_id, engine)
        train, _ = stratified_split_indices(y, test_size=0.3, seed=0)
        matrices[f"{dataset_id}-split"] = (X[train], y[train])
        matrices[f"{dataset_id}-whole"] = (X, y)
    return matrices


def fit_both(monkeypatch, make, *args):
    """``make()`` fitted on ``args``, then again through the oracle."""
    fitted = make().fit(*args)
    with monkeypatch.context() as patch:
        patch.setattr(kernels, "median_heuristic_gamma", oracle.median_heuristic_gamma)
        expected = make().fit(*args)
    return fitted, expected


MATRICES = ["F0-split", "F0-whole", "F4-split", "F4-whole"]


@pytest.mark.parametrize("key", MATRICES)
@pytest.mark.parametrize(
    "make",
    [RandomFourierFeatures, Nystroem, KernelOCSVM],
    ids=["rff", "nystroem", "kernel-ocsvm"],
)
def test_estimators_fit_the_same_bytes(monkeypatch, training_matrices, key, make):
    X, y = training_matrices[key]
    fitted, expected = fit_both(monkeypatch, make, X[y == 0])
    assert pickle.dumps(vars(fitted)) == pickle.dumps(vars(expected))


@pytest.mark.parametrize("key", MATRICES)
@pytest.mark.parametrize("algorithm_id", ["A07", "A08", "A09"])
def test_algorithm_models_fit_the_same_bytes(
    monkeypatch, training_matrices, key, algorithm_id
):
    spec = build_algorithm(algorithm_id)
    fitted, expected = fit_both(monkeypatch, spec.build_model, *training_matrices[key])
    assert pickle.dumps(fitted) == pickle.dumps(expected)


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------


def traced_peak_mb(call) -> float:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_gamma_peak_memory():
    # the broadcast oracle peaks at ~63 MB here: 500 x 500 x 16 twice
    X = np.random.default_rng(0).normal(size=(2000, 16))
    assert traced_peak_mb(lambda: median_heuristic_gamma(X)) < 8.0


def test_a07_cell_peak_memory():
    # ~63 MB through the broadcast oracle, ~3.6 MB tiled
    runner = BenchmarkRunner(seed=0)
    runner.evaluate("A07", "F0", "F0")  # loads and featurizes F0
    assert traced_peak_mb(lambda: runner.evaluate("A07", "F0", "F0")) < 16.0
