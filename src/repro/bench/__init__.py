"""The Lumen benchmarking suite.

Evaluates catalog algorithms over the dataset registry under the
faithfulness rule, stores results in a query-friendly form, and computes
every figure of the paper's evaluation:

* :mod:`repro.bench.results` -- the result records and store.
* :mod:`repro.bench.runner` -- same-/cross-dataset evaluation runner.
* :mod:`repro.bench.heatmap` -- text/CSV heatmap and box-data renderers.
* :mod:`repro.bench.analysis` -- Figures 1b/1c, 5, 7, 8, 9, 10.
* :mod:`repro.bench.validation` -- the Section 5.2 validation checks.
"""

from repro.bench.checkpoint import CheckpointJournal, CheckpointState
from repro.bench.results import EvaluationResult, FailureRecord, ResultStore
from repro.bench.runner import (
    BenchmarkRunner,
    evaluate_cross_dataset,
    evaluate_same_dataset,
    faithful_pairs,
)
from repro.core.errors import EvaluationTimeout
from repro.bench.heatmap import Heatmap
from repro.bench.analysis import (
    best_gap_by_algorithm,
    distribution_by_algorithm,
    per_attack_precision,
    train_test_median_matrix,
)
from repro.bench.validation import validation_report
from repro.bench.report import generate_report
from repro.bench.diffing import diff_stores, render_diff
from repro.bench.progress import MatrixProgress, TtyProgressRenderer
from repro.bench.relevance import feature_relevance, top_features
from repro.bench.ablation import measure_rewrite_damage

__all__ = [
    "CheckpointJournal",
    "CheckpointState",
    "EvaluationResult",
    "EvaluationTimeout",
    "FailureRecord",
    "ResultStore",
    "BenchmarkRunner",
    "evaluate_cross_dataset",
    "evaluate_same_dataset",
    "faithful_pairs",
    "Heatmap",
    "best_gap_by_algorithm",
    "distribution_by_algorithm",
    "per_attack_precision",
    "train_test_median_matrix",
    "validation_report",
    "generate_report",
    "diff_stores",
    "render_diff",
    "feature_relevance",
    "top_features",
    "measure_rewrite_damage",
    "MatrixProgress",
    "TtyProgressRenderer",
]
