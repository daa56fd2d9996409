"""Lumen-guided algorithm improvement (Section 5.4 of the paper).

Two heuristics:

1. **Merged-dataset training** -- "for each classification granularity,
   we generate a new dataset by concatenating 10% of data from each
   dataset", train on the merged sample and test on a disjoint merged
   sample.  :func:`merged_train_test` implements this at the feature
   level (per algorithm), so the concatenation respects each
   algorithm's own classification units.

2. **Greedy module recombination** -- "a greedy brute-force search over
   the space of used features and ML models", complemented with
   normalisation, correlated-feature removal and autoML.
   :class:`GreedySynthesizer` searches feature blocks drawn from the
   existing connection-level algorithms crossed with the model zoo, and
   emits the best candidates as new :class:`AlgorithmSpec` entries
   (AM01, AM02, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.algorithms.base import AlgorithmSpec
from repro.algorithms.catalog import ALGORITHMS
from repro.core import ExecutionEngine
from repro.flows import Granularity
from repro.ml import f1_score, precision_score, recall_score
from repro.ml.base import clone

#: feature blocks available to the synthesis search, as template
#: fragments computing a named output from the shared "flows" value.
FEATURE_BLOCKS: dict[str, list[dict]] = {
    "first_packets": [
        {"func": "FirstNPackets", "input": ["flows"],
         "output": "first_packets", "n": 8, "include_direction": False},
    ],
    "discriminators": [
        {"func": "FlowDiscriminators", "input": ["flows"],
         "output": "discriminators"},
    ],
    "conn_log": [
        {"func": "ZeekConnLog", "input": ["flows"], "output": "conn_log"},
    ],
    "volume_stats": [
        {"func": "ApplyAggregates", "input": ["flows"],
         "output": "volume_stats",
         "list": ["count", "duration", "bandwidth", "pps", "mean:length",
                  "std:length", "iat_mean", "iat_std"]},
    ],
    "port_entropy": [
        {"func": "ApplyAggregates", "input": ["flows"],
         "output": "port_entropy",
         "list": ["entropy:src_port", "entropy:dst_port",
                  "nunique:dst_port", "flag_frac:SYN", "flag_frac:RST",
                  "flag_frac:FIN"]},
    ],
}

#: candidate model fragments (model type, params, wrap with scaler?)
MODEL_CANDIDATES: list[tuple[str, dict, bool]] = [
    ("RandomForest", {}, False),
    ("DecisionTree", {}, False),
    ("NaiveBayes", {}, True),
    ("KNN", {}, True),
    ("MLP", {"hidden_sizes": [24, 12], "n_epochs": 50}, True),
    ("AutoML", {"time_budget": 6}, True),
]


def _feature_template(blocks: list[str]) -> tuple[dict, ...]:
    """Build a connection-level feature template over chosen blocks."""
    if not blocks:
        raise ValueError("need at least one feature block")
    steps: list[dict] = [
        {"func": "Groupby", "input": None, "output": "flows",
         "flowid": ["connection"]},
    ]
    if len(blocks) == 1:
        # a single block's op writes X directly
        only = dict(FEATURE_BLOCKS[blocks[0]][-1])
        only["output"] = "X"
        steps.append(only)
    else:
        for block in blocks:
            steps.extend(FEATURE_BLOCKS[block])
        current = blocks[0]
        for index, block in enumerate(blocks[1:]):
            combined = "X" if index == len(blocks) - 2 else f"cat{index}"
            steps.append(
                {"func": "ConcatFeatures", "input": [current, block],
                 "output": combined}
            )
            current = combined
    steps.append({"func": "Labels", "input": ["flows"], "output": "y"})
    return tuple(steps)


def _model_template(
    model_type: str, params: dict, scaled: bool, decorrelate: bool
) -> tuple[dict, ...]:
    steps: list[dict] = [
        {"func": "model", "model_type": model_type, "input": None,
         "output": "m0", "params": params},
    ]
    current = "m0"
    if decorrelate:
        steps.append(
            {"func": "WithDecorrelation", "input": [current], "output": "m1"}
        )
        current = "m1"
    if scaled:
        steps.append(
            {"func": "WithScaler", "input": [current], "output": "clf"}
        )
    else:
        steps.append(
            {"func": "WithVarianceFilter", "input": [current],
             "output": "clf"}
        )
    return tuple(steps)


def merged_train_test(
    algorithm: AlgorithmSpec,
    dataset_ids: list[str],
    *,
    fraction: float = 0.1,
    seed: int = 0,
    engine: ExecutionEngine | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The paper's merged-dataset protocol for one algorithm.

    From every dataset, sample ``fraction`` of the algorithm's units for
    training and a disjoint ``fraction`` for testing; concatenate across
    datasets.  Returns (X_train, y_train, X_test, y_test).
    """
    from repro.datasets import load_dataset

    if not 0.0 < fraction <= 0.5:
        raise ValueError("fraction must be in (0, 0.5]")
    engine = engine or ExecutionEngine(track_memory=False)
    rng = np.random.default_rng(seed)
    train_X, train_y, test_X, test_y = [], [], [], []
    for dataset_id in dataset_ids:
        X, y = algorithm.featurize(
            load_dataset(dataset_id), engine, source_token=dataset_id
        )
        order = rng.permutation(len(y))
        take = max(int(len(y) * fraction), 10)
        take = min(take, len(y) // 2)
        train_idx, test_idx = order[:take], order[take : 2 * take]
        train_X.append(X[train_idx])
        train_y.append(y[train_idx])
        test_X.append(X[test_idx])
        test_y.append(y[test_idx])
    return (
        np.vstack(train_X),
        np.concatenate(train_y),
        np.vstack(test_X),
        np.concatenate(test_y),
    )


@dataclass
class SynthesisResult:
    """One candidate evaluated by the greedy search."""

    blocks: tuple[str, ...]
    model_type: str
    scaled: bool
    decorrelate: bool
    precision: float
    recall: float
    f1: float

    def describe(self) -> str:
        extras = []
        if self.scaled:
            extras.append("scaler")
        if self.decorrelate:
            extras.append("decorrelation")
        suffix = f" (+{', '.join(extras)})" if extras else ""
        return (
            f"{'+'.join(self.blocks)} -> {self.model_type}{suffix}: "
            f"precision={self.precision:.3f} recall={self.recall:.3f}"
        )


class GreedySynthesizer:
    """Greedy search over feature blocks x models (Section 5.4)."""

    def __init__(
        self,
        dataset_ids: list[str],
        *,
        fraction: float = 0.1,
        seed: int = 0,
        engine: ExecutionEngine | None = None,
    ) -> None:
        self.dataset_ids = dataset_ids
        self.fraction = fraction
        self.seed = seed
        self.engine = engine or ExecutionEngine(track_memory=False)
        self.results: list[SynthesisResult] = []

    def _candidate_spec(
        self,
        blocks: tuple[str, ...],
        model_type: str,
        params: dict,
        scaled: bool,
        decorrelate: bool,
        algorithm_id: str = "candidate",
    ) -> AlgorithmSpec:
        return AlgorithmSpec(
            algorithm_id=algorithm_id,
            name=f"synth:{'+'.join(blocks)}:{model_type}",
            paper="Lumen-synthesised (this work)",
            granularity=Granularity.CONNECTION,
            feature_template=_feature_template(list(blocks)),
            model_template=_model_template(
                model_type, params, scaled, decorrelate
            ),
            notes="generated by GreedySynthesizer",
        )

    def _evaluate(
        self, blocks: tuple[str, ...], model_type: str, params: dict,
        scaled: bool, decorrelate: bool,
    ) -> SynthesisResult:
        spec = self._candidate_spec(blocks, model_type, params, scaled, decorrelate)
        X_train, y_train, X_test, y_test = merged_train_test(
            spec, self.dataset_ids, fraction=self.fraction,
            seed=self.seed, engine=self.engine,
        )
        model = spec.build_model()
        model.fit(X_train, y_train)
        predictions = model.predict(X_test)
        result = SynthesisResult(
            blocks=blocks,
            model_type=model_type,
            scaled=scaled,
            decorrelate=decorrelate,
            precision=float(precision_score(y_test, predictions)),
            recall=float(recall_score(y_test, predictions)),
            f1=float(f1_score(y_test, predictions)),
        )
        self.results.append(result)
        return result

    def search(self, max_blocks: int = 3) -> list[SynthesisResult]:
        """Greedy block growth per model family; returns all results
        sorted by F1 (best first)."""
        for model_type, params, scaled in MODEL_CANDIDATES:
            best: SynthesisResult | None = None
            chosen: tuple[str, ...] = ()
            remaining = set(FEATURE_BLOCKS)
            while remaining and len(chosen) < max_blocks:
                round_best: SynthesisResult | None = None
                for block in sorted(remaining):
                    candidate = self._evaluate(
                        chosen + (block,), model_type, params, scaled,
                        decorrelate=len(chosen) >= 1,
                    )
                    if round_best is None or candidate.f1 > round_best.f1:
                        round_best = candidate
                if best is not None and round_best.f1 <= best.f1 + 1e-6:
                    break
                best = round_best
                chosen = round_best.blocks
                remaining -= set(chosen)
        return sorted(self.results, key=lambda r: r.f1, reverse=True)

    def top_specs(self, k: int = 3) -> list[AlgorithmSpec]:
        """The best k distinct candidates as AM01..AMk specs."""
        ranked = sorted(self.results, key=lambda r: r.f1, reverse=True)
        specs: list[AlgorithmSpec] = []
        seen: set[tuple] = set()
        for result in ranked:
            key = (result.blocks, result.model_type, result.scaled,
                   result.decorrelate)
            if key in seen:
                continue
            seen.add(key)
            params = next(
                p for t, p, _ in MODEL_CANDIDATES if t == result.model_type
            )
            specs.append(
                self._candidate_spec(
                    result.blocks, result.model_type, params, result.scaled,
                    result.decorrelate,
                    algorithm_id=f"AM{len(specs) + 1:02d}",
                )
            )
            if len(specs) == k:
                break
        return specs


def synthesized_algorithms(
    dataset_ids: list[str] | None = None,
    *,
    k: int = 3,
    fraction: float = 0.1,
    seed: int = 0,
    register: bool = True,
) -> list[AlgorithmSpec]:
    """Run the synthesis search and (optionally) register AM01..AMk in
    the algorithm catalog so the bench suite can evaluate them."""
    from repro.datasets import dataset_ids as all_ids

    ids = dataset_ids or all_ids(Granularity.CONNECTION)
    synthesizer = GreedySynthesizer(ids, fraction=fraction, seed=seed)
    synthesizer.search()
    specs = synthesizer.top_specs(k)
    if register:
        for spec in specs:
            ALGORITHMS[spec.algorithm_id] = spec
    return specs


class RandomSearchSynthesizer(GreedySynthesizer):
    """Budgeted random search over the same candidate space.

    The paper's Section 6 proposes replacing the greedy brute-force
    search with black-box optimisation; this sampler is the natural
    baseline for that direction: draw (block subset, model, wrappers)
    uniformly at random under a fixed evaluation budget.  The ablation
    benchmark compares it against :class:`GreedySynthesizer` at equal
    budget.
    """

    def search(self, max_blocks: int = 3, budget: int = 24) -> list[SynthesisResult]:
        import numpy as np

        rng = np.random.default_rng(self.seed)
        block_names = sorted(FEATURE_BLOCKS)
        seen: set[tuple] = set()
        attempts = 0
        while len(self.results) < budget and attempts < budget * 10:
            attempts += 1
            k = int(rng.integers(1, max_blocks + 1))
            blocks = tuple(
                sorted(rng.choice(block_names, size=k, replace=False))
            )
            model_type, params, scaled = MODEL_CANDIDATES[
                int(rng.integers(0, len(MODEL_CANDIDATES)))
            ]
            decorrelate = bool(rng.integers(0, 2)) and len(blocks) > 1
            key = (blocks, model_type, scaled, decorrelate)
            if key in seen:
                continue
            seen.add(key)
            self._evaluate(blocks, model_type, params, scaled, decorrelate)
        return sorted(self.results, key=lambda r: r.f1, reverse=True)
