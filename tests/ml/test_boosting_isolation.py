"""Tests for gradient boosting and isolation forest."""

import numpy as np
import pytest

from repro.ml import (
    GradientBoostingClassifier,
    IsolationForest,
    accuracy_score,
    roc_auc_score,
)
from repro.ml.base import clone


class TestGradientBoosting:
    def test_solves_xor(self, xor_data):
        X, y = xor_data
        model = GradientBoostingClassifier(n_estimators=60, seed=0).fit(X, y)
        assert accuracy_score(y, model.predict(X)) > 0.97

    def test_separable_blobs(self, blobs):
        X, y = blobs
        model = GradientBoostingClassifier(n_estimators=30).fit(X, y)
        assert accuracy_score(y, model.predict(X)) > 0.97

    def test_more_rounds_fit_better(self, xor_data):
        X, y = xor_data
        weak = GradientBoostingClassifier(n_estimators=2, seed=0).fit(X, y)
        strong = GradientBoostingClassifier(n_estimators=40, seed=0).fit(X, y)
        assert accuracy_score(y, strong.predict(X)) >= accuracy_score(
            y, weak.predict(X)
        )

    def test_proba_rows_sum_to_one(self, blobs):
        X, y = blobs
        proba = GradientBoostingClassifier(n_estimators=10).fit(X, y).predict_proba(X)
        assert np.allclose(proba.sum(axis=1), 1.0)
        assert (proba >= 0).all()

    def test_decision_function_monotone_with_proba(self, blobs):
        X, y = blobs
        model = GradientBoostingClassifier(n_estimators=10).fit(X, y)
        raw = model.decision_function(X)
        proba = model.predict_proba(X)[:, 1]
        order = np.argsort(raw)
        assert np.all(np.diff(proba[order]) >= -1e-12)

    def test_threshold_near_the_float_maximum(self):
        # the midpoint of 1e308 and 1.7e308 overflows; the split must
        # still route each training row the way it was scored
        X = np.array([[1e308], [1.7e308], [1e308], [1.7e308]])
        y = np.array([0, 1, 0, 1])
        with np.errstate(over="raise"):
            model = GradientBoostingClassifier(n_estimators=5).fit(X, y)
        assert np.array_equal(model.predict(X), y)

    def test_single_class(self):
        X = np.random.default_rng(0).normal(size=(20, 2))
        y = np.ones(20, dtype=int)
        model = GradientBoostingClassifier().fit(X, y)
        assert (model.predict(X) == 1).all()

    def test_multiclass_rejected(self):
        X = np.random.default_rng(0).normal(size=(30, 2))
        y = np.repeat([0, 1, 2], 10)
        with pytest.raises(ValueError):
            GradientBoostingClassifier().fit(X, y)

    def test_invalid_subsample(self, blobs):
        X, y = blobs
        with pytest.raises(ValueError):
            GradientBoostingClassifier(subsample=0.0).fit(X, y)

    def test_subsampling_still_learns(self, blobs):
        X, y = blobs
        model = GradientBoostingClassifier(
            n_estimators=30, subsample=0.5, seed=0
        ).fit(X, y)
        assert accuracy_score(y, model.predict(X)) > 0.95

    def test_deterministic(self, blobs):
        X, y = blobs
        a = clone(GradientBoostingClassifier(seed=3)).fit(X, y).predict(X)
        b = clone(GradientBoostingClassifier(seed=3)).fit(X, y).predict(X)
        assert np.array_equal(a, b)

    def test_noncontiguous_labels(self, blobs):
        X, y = blobs
        model = GradientBoostingClassifier(n_estimators=10).fit(X, y * 7 + 3)
        assert set(np.unique(model.predict(X))) <= {3, 10}


class TestIsolationForest:
    def test_separates_outliers(self):
        rng = np.random.default_rng(1)
        benign = rng.normal(0, 1, size=(500, 4))
        anomalous = rng.normal(5, 1, size=(60, 4))
        forest = IsolationForest(seed=0).fit(benign)
        scores = np.concatenate(
            [forest.score_samples(benign), forest.score_samples(anomalous)]
        )
        labels = np.array([0] * 500 + [1] * 60)
        assert roc_auc_score(labels, scores) > 0.95

    def test_scores_in_unit_interval(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(200, 3))
        forest = IsolationForest(seed=0).fit(X)
        scores = forest.score_samples(X)
        assert (scores > 0).all() and (scores < 1).all()

    def test_contamination_controls_flag_rate(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(1000, 3))
        strict = IsolationForest(contamination=0.01, seed=0).fit(X)
        loose = IsolationForest(contamination=0.2, seed=0).fit(X)
        assert strict.predict(X).mean() < loose.predict(X).mean()
        assert loose.predict(X).mean() == pytest.approx(0.2, abs=0.05)

    def test_invalid_contamination(self):
        with pytest.raises(ValueError):
            IsolationForest(contamination=0.0).fit(np.zeros((10, 2)) + 1e-3)

    def test_constant_data_does_not_crash(self):
        X = np.ones((50, 3))
        forest = IsolationForest(seed=0).fit(X)
        assert forest.score_samples(X).shape == (50,)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(100, 2))
        a = IsolationForest(seed=9).fit(X).score_samples(X)
        b = IsolationForest(seed=9).fit(X).score_samples(X)
        assert np.allclose(a, b)

    def test_empty_scoring(self):
        X = np.random.default_rng(5).normal(size=(50, 2))
        forest = IsolationForest(seed=0).fit(X)
        assert forest.score_samples(np.empty((0, 2))).shape == (0,)

    def test_via_model_factory(self):
        from repro.core.operations import _model_factory

        model = _model_factory("IsolationForest", {})
        rng = np.random.default_rng(6)
        X = np.vstack([rng.normal(0, 1, (300, 3)), rng.normal(5, 1, (40, 3))])
        y = np.array([0] * 300 + [1] * 40)
        model.fit(X, y)
        from repro.ml import precision_score, recall_score

        predictions = model.predict(X)
        assert recall_score(y, predictions) > 0.8
