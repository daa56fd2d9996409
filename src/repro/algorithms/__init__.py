"""The reproduced algorithms (Table 2 of the paper).

A00-A15 are the sixteen literature algorithms, each expressed as a Lumen
template (feature pipeline + model fragment); AM01-AM03 are the
Lumen-synthesised improvements of Section 5.4.

Use :func:`build_algorithm` / :data:`ALGORITHMS` to obtain specs and
:class:`AlgorithmSpec` to featurize datasets and build models.
"""

from repro.algorithms.base import AlgorithmSpec
from repro.algorithms.catalog import ALGORITHMS, algorithm_ids, build_algorithm
from repro.algorithms.synthesis import (
    GreedySynthesizer,
    SynthesisResult,
    merged_train_test,
    synthesized_algorithms,
)

__all__ = [
    "AlgorithmSpec",
    "ALGORITHMS",
    "algorithm_ids",
    "build_algorithm",
    "GreedySynthesizer",
    "SynthesisResult",
    "merged_train_test",
    "synthesized_algorithms",
]
