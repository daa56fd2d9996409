"""Tests for the supervised classifiers."""

import numpy as np
import pytest

from repro.ml import (
    AutoML,
    DecisionTreeClassifier,
    GaussianNB,
    KNeighborsClassifier,
    LinearSVC,
    LogisticRegression,
    MLPClassifier,
    RandomForestClassifier,
    VotingClassifier,
    accuracy_score,
)
from repro.ml.base import BaseEstimator, NotFittedError, clone


ALL_CLASSIFIERS = [
    DecisionTreeClassifier(max_depth=8),
    RandomForestClassifier(n_estimators=10, max_depth=8),
    KNeighborsClassifier(n_neighbors=5),
    GaussianNB(),
    LogisticRegression(n_epochs=40),
    LinearSVC(n_epochs=40),
    MLPClassifier(n_epochs=40),
]


@pytest.mark.parametrize(
    "model", ALL_CLASSIFIERS, ids=lambda m: type(m).__name__
)
class TestCommonBehaviour:
    def test_separable_blobs(self, model, blobs):
        X, y = blobs
        fitted = clone(model).fit(X, y)
        assert accuracy_score(y, fitted.predict(X)) > 0.95

    def test_predict_before_fit_raises(self, model, blobs):
        X, _ = blobs
        with pytest.raises((NotFittedError, AttributeError)):
            clone(model).predict(X)

    def test_output_shape_and_labels(self, model, blobs):
        X, y = blobs
        predictions = clone(model).fit(X, y).predict(X[:17])
        assert predictions.shape == (17,)
        assert set(np.unique(predictions)) <= {0, 1}

    def test_deterministic_given_seed(self, model, blobs):
        X, y = blobs
        first = clone(model).fit(X, y).predict(X)
        second = clone(model).fit(X, y).predict(X)
        assert np.array_equal(first, second)

    def test_clone_returns_unfitted_equal_params(self, model):
        duplicate = clone(model)
        assert duplicate.get_params() == model.get_params()
        assert duplicate is not model


class TestDecisionTree:
    def test_pure_node_short_circuits(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([1, 1, 1])
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.n_leaves_ == 1
        assert tree.depth_ == 0

    def test_max_depth_respected(self, xor_data):
        X, y = xor_data
        tree = DecisionTreeClassifier(max_depth=2).fit(X, y)
        assert tree.depth_ <= 2

    def test_solves_xor(self, xor_data):
        X, y = xor_data
        tree = DecisionTreeClassifier(max_depth=6).fit(X, y)
        assert accuracy_score(y, tree.predict(X)) > 0.98

    def test_min_samples_leaf(self, blobs):
        X, y = blobs
        tree = DecisionTreeClassifier(min_samples_leaf=50).fit(X, y)
        # every leaf must have held >= 50 training samples; with 400
        # samples that caps the leaves at 8
        assert tree.n_leaves_ <= 8

    def test_entropy_criterion(self, blobs):
        X, y = blobs
        tree = DecisionTreeClassifier(criterion="entropy").fit(X, y)
        assert accuracy_score(y, tree.predict(X)) > 0.95

    def test_unknown_criterion_raises(self, blobs):
        X, y = blobs
        with pytest.raises(ValueError):
            DecisionTreeClassifier(criterion="bogus").fit(X, y)

    def test_predict_proba_sums_to_one(self, blobs):
        X, y = blobs
        proba = DecisionTreeClassifier(max_depth=4).fit(X, y).predict_proba(X)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_feature_count_mismatch_raises(self, blobs):
        X, y = blobs
        tree = DecisionTreeClassifier().fit(X, y)
        with pytest.raises(ValueError):
            tree.predict(X[:, :3])

    def test_multiclass(self):
        rng = np.random.default_rng(0)
        X = np.vstack([rng.normal(c, 0.3, size=(50, 2)) for c in (0, 3, 6)])
        y = np.repeat([10, 20, 30], 50)  # non-contiguous labels
        tree = DecisionTreeClassifier().fit(X, y)
        assert accuracy_score(y == 20, tree.predict(X) == 20) > 0.95
        assert set(tree.predict(X)) <= {10, 20, 30}

    def test_feature_importances_sum_to_one(self, blobs):
        X, y = blobs
        importances = DecisionTreeClassifier().fit(X, y).feature_importances()
        assert importances.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "values",
        [(1e308, 1.7e308), (1.0000000000000002, 1.0000000000000004)],
        ids=["overflows", "rounds_up"],
    )
    def test_a_midpoint_outside_its_interval_still_splits(self, values):
        X = np.array(values)[:, None]
        y = np.array([0, 1])
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.n_leaves_ == 2
        assert np.array_equal(tree.predict(X), y)

    def test_a_tree_deeper_than_the_recursion_limit(self):
        X = np.arange(1200.0)[:, None]
        y = np.arange(1200) % 2
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.depth_ == 1199
        assert tree.n_leaves_ == 1200
        assert np.array_equal(tree.predict(X), y)


class TestRandomForest:
    def test_solves_xor(self, xor_data):
        X, y = xor_data
        forest = RandomForestClassifier(n_estimators=20, seed=0).fit(X, y)
        assert accuracy_score(y, forest.predict(X)) > 0.98

    def test_seed_changes_trees(self, blobs):
        X, y = blobs
        a = RandomForestClassifier(n_estimators=5, seed=0).fit(X, y)
        b = RandomForestClassifier(n_estimators=5, seed=1).fit(X, y)
        thresholds_a = [t.nodes_[0].threshold for t in a.trees_]
        thresholds_b = [t.nodes_[0].threshold for t in b.trees_]
        assert thresholds_a != thresholds_b

    def test_zero_estimators_rejected(self, blobs):
        X, y = blobs
        with pytest.raises(ValueError):
            RandomForestClassifier(n_estimators=0).fit(X, y)

    def test_probability_calibration_direction(self, blobs):
        X, y = blobs
        forest = RandomForestClassifier(n_estimators=20).fit(X, y)
        proba = forest.predict_proba(X)
        assert proba[y == 1, 1].mean() > proba[y == 0, 1].mean()


class TestKNN:
    def test_distance_weighting_memorises(self, blobs):
        X, y = blobs
        knn = KNeighborsClassifier(n_neighbors=5, weights="distance").fit(X, y)
        assert accuracy_score(y, knn.predict(X)) == 1.0

    def test_k_larger_than_train_is_clamped(self):
        X = np.array([[0.0], [1.0], [10.0]])
        y = np.array([0, 0, 1])
        knn = KNeighborsClassifier(n_neighbors=50).fit(X, y)
        assert knn.predict([[0.5]])[0] == 0

    def test_bad_weights_rejected(self, blobs):
        X, y = blobs
        with pytest.raises(ValueError):
            KNeighborsClassifier(weights="quadratic").fit(X, y)

    def test_k_one_exact_match(self):
        X = np.array([[0.0], [5.0]])
        y = np.array([0, 1])
        knn = KNeighborsClassifier(n_neighbors=1).fit(X, y)
        assert knn.predict([[4.9]])[0] == 1

    def test_exact_ties_go_to_the_lowest_training_index(self):
        # rows 1-3 are one point with three labels; rows 0 and 4 sit at
        # the same distance from the query [2, 2]
        X = np.array([[0.0, 2.0], [2.0, 2.0], [2.0, 2.0], [2.0, 2.0], [4.0, 2.0]])
        y = np.array([7, 1, 2, 3, 8])
        for order in ([0, 1, 2, 3, 4], [0, 3, 2, 1, 4], [4, 2, 3, 1, 0]):
            knn = KNeighborsClassifier(n_neighbors=1).fit(X[order], y[order])
            assert knn.predict([[2.0, 2.0]])[0] == y[order][1]
        knn = KNeighborsClassifier(n_neighbors=4, weights="distance").fit(X, y)
        distances, indices = knn._kneighbors(np.array([[2.0, 2.0], [2.0, 3.0]]), 4)
        assert indices.tolist() == [[1, 2, 3, 0], [1, 2, 3, 0]]
        assert distances.tolist() == [[0.0, 0.0, 0.0, 2.0], [1.0, 1.0, 1.0, 5 ** 0.5]]
        # the three tied labels share the vote equally
        proba = knn.predict_proba([[2.0, 3.0]])[0]
        assert proba[0] == proba[1] == proba[2] > proba[3] > 0.0


class TestNaiveBayes:
    def test_recovers_class_means(self, blobs):
        X, y = blobs
        model = GaussianNB().fit(X, y)
        assert np.allclose(model.theta_[0], 0.0, atol=0.3)
        assert np.allclose(model.theta_[1], 3.0, atol=0.3)

    def test_priors(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 2))
        y = np.array([0] * 75 + [1] * 25)
        model = GaussianNB().fit(X, y)
        assert model.class_prior_[0] == pytest.approx(0.75)

    def test_constant_feature_survives(self):
        X = np.column_stack([np.ones(40), np.concatenate([np.zeros(20), np.ones(20)])])
        y = np.array([0] * 20 + [1] * 20)
        model = GaussianNB().fit(X, y)
        assert accuracy_score(y, model.predict(X)) == 1.0


class TestLinearModels:
    def test_logistic_proba_monotone_in_score(self, blobs):
        X, y = blobs
        model = LogisticRegression(n_epochs=40).fit(X, y)
        scores = model.decision_function(X)
        proba = model.predict_proba(X)[:, 1]
        order = np.argsort(scores)
        assert np.all(np.diff(proba[order]) >= -1e-12)

    def test_single_class_training(self):
        X = np.random.default_rng(0).normal(size=(20, 3))
        y = np.zeros(20, dtype=int)
        model = LogisticRegression().fit(X, y)
        assert (model.predict(X) == 0).all()

    def test_three_classes_rejected(self):
        X = np.random.default_rng(0).normal(size=(30, 2))
        y = np.repeat([0, 1, 2], 10)
        with pytest.raises(ValueError):
            LinearSVC().fit(X, y)

    def test_svc_margin_sign(self, blobs):
        X, y = blobs
        model = LinearSVC(n_epochs=40).fit(X, y)
        scores = model.decision_function(X)
        assert scores[y == 1].mean() > scores[y == 0].mean()


class TestMLP:
    def test_solves_xor(self, xor_data):
        X, y = xor_data
        mlp = MLPClassifier(hidden_sizes=(16, 16), n_epochs=150, seed=0).fit(X, y)
        assert accuracy_score(y, mlp.predict(X)) > 0.95

    def test_proba_rows_sum_to_one(self, blobs):
        X, y = blobs
        proba = MLPClassifier(n_epochs=10).fit(X, y).predict_proba(X)
        assert np.allclose(proba.sum(axis=1), 1.0)


class _FixedVotes(BaseEstimator):
    """A member that predicts the given votes, whatever it is shown."""

    def __init__(self, votes):
        self.votes = votes

    def fit(self, X, y):
        return self

    def predict(self, X):
        return self.votes[: len(X)]


class TestEnsembles:
    def test_hard_voting_majority(self, blobs):
        X, y = blobs
        ensemble = VotingClassifier(
            [
                ("tree", DecisionTreeClassifier(max_depth=4)),
                ("nb", GaussianNB()),
                ("knn", KNeighborsClassifier()),
            ]
        ).fit(X, y)
        assert accuracy_score(y, ensemble.predict(X)) > 0.95

    def test_soft_voting(self, blobs):
        X, y = blobs
        ensemble = VotingClassifier(
            [
                ("tree", DecisionTreeClassifier(max_depth=4)),
                ("nb", GaussianNB()),
            ],
            voting="soft",
        ).fit(X, y)
        proba = ensemble.predict_proba(X)
        assert np.allclose(proba.sum(axis=1), 1.0)
        assert accuracy_score(y, ensemble.predict(X)) > 0.95

    @pytest.mark.parametrize(
        "classes, ballot",
        [
            (np.array([0, 1, 2]), np.array([0, 1, 2])),
            (np.array(["benign", "ddos", "scan"]), np.array(["benign", "ddos", "scan"])),
            (np.array([0, 1]), np.array([-1, 0, 1, 2, 7])),
            (np.array(["a", "b"]), np.array(["a", "b", "zzz"])),
        ],
        ids=["ints", "strings", "ints_outside_classes", "strings_outside_classes"],
    )
    def test_hard_voting_matches_the_per_row_loop(self, classes, ballot):
        rng = np.random.default_rng(3)
        votes = rng.choice(ballot, size=(4, 300))  # four members: many ties
        X = np.zeros((300, 1))
        y = np.resize(classes, 300)
        ensemble = VotingClassifier(
            [(str(i), _FixedVotes(member)) for i, member in enumerate(votes)]
        ).fit(X, y)
        # a vote outside ``classes_`` comes back whole, never truncated
        expected = np.empty(
            300, dtype=np.promote_types(ensemble.classes_.dtype, votes.dtype)
        )
        for i in range(300):
            values, counts = np.unique(votes[:, i], return_counts=True)
            expected[i] = values[np.argmax(counts)]
        predicted = ensemble.predict(X)
        assert predicted.dtype == expected.dtype
        assert np.array_equal(predicted, expected)
        assert ensemble.predict(X[:0]).shape == (0,)
        if "zzz" in ballot:
            assert "zzz" in predicted

    def test_empty_ensemble_rejected(self, blobs):
        X, y = blobs
        with pytest.raises(ValueError):
            VotingClassifier([]).fit(X, y)

    def test_bad_voting_mode_rejected(self, blobs):
        X, y = blobs
        with pytest.raises(ValueError):
            VotingClassifier(
                [("nb", GaussianNB())], voting="plurality"
            ).fit(X, y)


class TestAutoML:
    def test_beats_chance_and_ranks_families(self, blobs):
        X, y = blobs
        automl = AutoML(time_budget=8, seed=0).fit(X, y)
        assert accuracy_score(y, automl.predict(X)) > 0.9
        assert len(automl.leaderboard_) <= 8
        assert automl.best_family_ in {
            "random_forest",
            "decision_tree",
            "naive_bayes",
            "knn",
            "logistic",
        }

    def test_leaderboard_scores_bounded(self, blobs):
        X, y = blobs
        automl = AutoML(time_budget=6, seed=0).fit(X, y)
        for _, _, score in automl.leaderboard_:
            assert 0.0 <= score <= 1.0


class TestTreeInvariances:
    """Property-style invariances of tree-based models."""

    def test_tree_invariant_to_monotone_feature_transform(self, blobs):
        import numpy as np

        X, y = blobs
        tree_a = DecisionTreeClassifier(max_depth=5, seed=0).fit(X, y)
        # strictly monotone per-feature transform preserves split order
        X_warped = np.sign(X) * np.abs(X) ** 3 + 5.0
        tree_b = DecisionTreeClassifier(max_depth=5, seed=0).fit(X_warped, y)
        assert np.array_equal(tree_a.predict(X), tree_b.predict(X_warped))

    def test_forest_invariant_to_feature_scaling(self, blobs):
        import numpy as np

        X, y = blobs
        forest_a = RandomForestClassifier(n_estimators=8, seed=0).fit(X, y)
        forest_b = RandomForestClassifier(n_estimators=8, seed=0).fit(
            X * 1000.0, y
        )
        assert np.array_equal(
            forest_a.predict(X), forest_b.predict(X * 1000.0)
        )

    def test_tree_invariant_to_duplicate_features(self, blobs):
        import numpy as np

        X, y = blobs
        doubled = np.hstack([X, X])
        tree = DecisionTreeClassifier(max_depth=6, seed=0).fit(doubled, y)
        baseline = DecisionTreeClassifier(max_depth=6, seed=0).fit(X, y)
        assert accuracy_score(y, tree.predict(doubled)) == pytest.approx(
            accuracy_score(y, baseline.predict(X)), abs=0.02
        )
