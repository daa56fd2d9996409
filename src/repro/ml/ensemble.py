"""Voting ensembles.

Algorithm A00 (ML-DDoS) votes RF, SVM, DT and KNN; the Ensemble paper
(A? family) votes NB/DT/RF/DNN.  Both are expressed with this class.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, check_array, check_X_y, clone


class VotingClassifier(BaseEstimator):
    """Hard or soft voting over independently fitted members.

    ``voting="hard"`` takes the majority label; ``voting="soft"``
    averages ``predict_proba`` (members lacking it fall back to one-hot
    votes).
    """

    def __init__(
        self,
        estimators: list[tuple[str, BaseEstimator]],
        voting: str = "hard",
    ) -> None:
        self.estimators = estimators
        self.voting = voting

    def fit(self, X, y) -> "VotingClassifier":
        if not self.estimators:
            raise ValueError("need at least one member estimator")
        if self.voting not in ("hard", "soft"):
            raise ValueError(f"unknown voting mode: {self.voting!r}")
        array, labels = check_X_y(X, y)
        self.classes_ = np.unique(labels)
        self.fitted_: list[tuple[str, BaseEstimator]] = []
        for name, estimator in self.estimators:
            member = clone(estimator)
            member.fit(array, labels)
            self.fitted_.append((name, member))
        return self

    def _member_proba(self, member: BaseEstimator, array: np.ndarray) -> np.ndarray:
        n_classes = len(self.classes_)
        if hasattr(member, "predict_proba"):
            proba = member.predict_proba(array)
            if proba.shape[1] == n_classes and np.array_equal(
                getattr(member, "classes_", self.classes_), self.classes_
            ):
                return proba
        predictions = member.predict(array)
        one_hot = np.zeros((len(array), n_classes))
        for j, value in enumerate(self.classes_):
            one_hot[predictions == value, j] = 1.0
        return one_hot

    def predict_proba(self, X) -> np.ndarray:
        self._check_fitted("fitted_")
        array = check_array(X, allow_empty=True)
        total = np.zeros((len(array), len(self.classes_)))
        for _, member in self.fitted_:
            total += self._member_proba(member, array)
        return total / len(self.fitted_)

    def predict(self, X) -> np.ndarray:
        self._check_fitted("fitted_")
        array = check_array(X, allow_empty=True)
        if self.voting == "soft":
            return self.classes_[np.argmax(self.predict_proba(array), axis=1)]
        if not len(array):
            return np.empty(0, dtype=self.classes_.dtype)
        votes = np.stack([member.predict(array) for _, member in self.fitted_])
        # The most frequent vote wins; a tie goes to the smallest value.
        values, inverse = np.unique(votes, return_inverse=True)
        cells = np.arange(len(array)) * len(values) + inverse.reshape(votes.shape)
        tallies = np.bincount(cells.ravel(), minlength=len(array) * len(values))
        winners = values[np.argmax(tallies.reshape(len(array), len(values)), axis=1)]
        # widen, never narrow: a vote outside ``classes_`` comes back whole
        return winners.astype(np.promote_types(self.classes_.dtype, winners.dtype))
