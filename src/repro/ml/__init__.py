"""Numpy ML substrate.

The paper relies on sklearn/TensorFlow for its models; this package
implements the same model families from scratch on numpy so the
reproduction has no dependency beyond numpy:

* supervised classifiers: :class:`DecisionTreeClassifier`,
  :class:`RandomForestClassifier`, :class:`KNeighborsClassifier`,
  :class:`GaussianNB`, :class:`LogisticRegression`, :class:`LinearSVC`,
  :class:`MLPClassifier`, :class:`VotingClassifier`;
* anomaly detectors: :class:`KernelOCSVM` (random-feature approximated),
  :class:`LinearOCSVM`, :class:`GaussianMixture` scoring,
  :class:`Autoencoder`, :class:`KitNET` (the Kitsune ensemble);
* kernel approximations: :class:`RandomFourierFeatures`,
  :class:`Nystroem`;
* preprocessing: :class:`StandardScaler`, :class:`MinMaxScaler`,
  :class:`PCA`, :class:`VarianceThreshold`,
  :class:`CorrelatedFeatureRemover`;
* model selection: :func:`train_test_split`, :class:`KFold`,
  :class:`GridSearch`, :class:`AutoML`;
* metrics: :func:`precision_score`, :func:`recall_score`,
  :func:`f1_score`, :func:`accuracy_score`, :func:`roc_auc_score`,
  :func:`confusion_matrix`.
"""

from repro.ml.base import BaseEstimator, clone, check_X_y, check_array
from repro.ml.metrics import (
    accuracy_score,
    confusion_matrix,
    f1_score,
    precision_recall_curve,
    precision_score,
    recall_score,
    roc_auc_score,
    roc_curve,
    balanced_accuracy_score,
    classification_summary,
)
from repro.ml.preprocessing import MinMaxScaler, PCA, StandardScaler
from repro.ml.feature_selection import CorrelatedFeatureRemover, VarianceThreshold
from repro.ml.model_selection import GridSearch, KFold, train_test_split
from repro.ml.tree import DecisionTreeClassifier
from repro.ml.forest import RandomForestClassifier
from repro.ml.neighbors import KNeighborsClassifier
from repro.ml.naive_bayes import GaussianNB
from repro.ml.linear import LinearSVC, LogisticRegression
from repro.ml.kernels import Nystroem, RandomFourierFeatures, rbf_kernel
from repro.ml.svm import KernelOCSVM, LinearOCSVM
from repro.ml.gmm import GaussianMixture, GMMAnomalyDetector
from repro.ml.cluster import KMeans
from repro.ml.neural import Autoencoder, MLPClassifier
from repro.ml.kitsune import KitNET
from repro.ml.ensemble import VotingClassifier
from repro.ml.boosting import GradientBoostingClassifier
from repro.ml.isolation import IsolationForest
from repro.ml.anomaly import AnomalyThresholdClassifier
from repro.ml.automl import AutoML
from repro.ml.calibration import (
    apply_threshold,
    recalibrate,
    threshold_for_best_f1,
    threshold_for_fpr,
    threshold_for_precision,
)

__all__ = [
    "BaseEstimator",
    "clone",
    "check_X_y",
    "check_array",
    "accuracy_score",
    "confusion_matrix",
    "f1_score",
    "precision_recall_curve",
    "precision_score",
    "recall_score",
    "roc_auc_score",
    "roc_curve",
    "balanced_accuracy_score",
    "classification_summary",
    "MinMaxScaler",
    "PCA",
    "StandardScaler",
    "CorrelatedFeatureRemover",
    "VarianceThreshold",
    "GridSearch",
    "KFold",
    "train_test_split",
    "DecisionTreeClassifier",
    "RandomForestClassifier",
    "KNeighborsClassifier",
    "GaussianNB",
    "LinearSVC",
    "LogisticRegression",
    "Nystroem",
    "RandomFourierFeatures",
    "rbf_kernel",
    "KernelOCSVM",
    "LinearOCSVM",
    "GaussianMixture",
    "GMMAnomalyDetector",
    "KMeans",
    "Autoencoder",
    "MLPClassifier",
    "KitNET",
    "VotingClassifier",
    "GradientBoostingClassifier",
    "IsolationForest",
    "AnomalyThresholdClassifier",
    "AutoML",
    "apply_threshold",
    "recalibrate",
    "threshold_for_best_f1",
    "threshold_for_fpr",
    "threshold_for_precision",
]
