"""Integration tests: the bench runner and the figure analyses."""

import numpy as np
import pytest

from repro.bench import (
    BenchmarkRunner,
    best_gap_by_algorithm,
    distribution_by_algorithm,
    evaluate_cross_dataset,
    evaluate_same_dataset,
    faithful_pairs,
    per_attack_precision,
    train_test_median_matrix,
)
from repro.bench.analysis import algorithms_below, asymmetry_pairs, no_single_best
from repro.core import ExecutionEngine
from repro.datasets import DATASETS
from repro.flows import Granularity
from repro.obs import RingBufferSink, get_tracer


@pytest.fixture(scope="module")
def small_matrix_store():
    """A real (but small) evaluation matrix shared by analysis tests."""
    runner = BenchmarkRunner(seed=0)
    runner.run_matrix(["A10", "A13", "A14"], ["F0", "F1", "F4"])
    return runner.store


class TestFaithfulPairs:
    def test_packet_algorithms_only_on_packet_datasets(self):
        pairs = faithful_pairs(["A06"], None)
        assert {d for _, d in pairs} == {"P0", "P1", "P2"}

    def test_connection_algorithms_only_on_connection_datasets(self):
        pairs = faithful_pairs(["A14"], None)
        assert {d for _, d in pairs} == {f"F{i}" for i in range(10)}

    def test_uni_flow_algorithm_gets_connection_datasets(self):
        # the label-propagation direction is allowed
        pairs = faithful_pairs(["A10"], None)
        assert {d for _, d in pairs} == {f"F{i}" for i in range(10)}

    def test_unfaithful_evaluation_rejected(self):
        runner = BenchmarkRunner()
        with pytest.raises(ValueError, match="unfaithful"):
            runner.evaluate("A14", "P0", "P0")
        with pytest.raises(ValueError, match="unfaithful"):
            runner.evaluate("A06", "F0", "P0")

    @pytest.mark.parametrize("algorithms, datasets, message", [
        (["NOPE"], ["F0"], "unknown algorithm id: 'NOPE'"),
        (["A14"], ["NOPE"], "unknown dataset id: 'NOPE'"),
    ], ids=["algorithm", "dataset"])
    def test_unknown_id_names_kind_and_id(self, algorithms, datasets,
                                          message):
        with pytest.raises(KeyError) as info:
            faithful_pairs(algorithms, datasets)
        assert info.value.args == (message,)


class TestSharedWork:
    def test_shared_prefix_computed_once_per_dataset(self):
        """The result cache runs each shared featurization prefix once
        per dataset; every later cell's lookup is a cache hit."""
        ExecutionEngine.shared_cache.clear()
        sink = RingBufferSink(capacity=None)
        tracer = get_tracer()
        tracer.add_sink(sink)
        try:
            store = BenchmarkRunner().run_matrix(["A13", "A14"], ["F0", "F1"])
        finally:
            tracer.remove_sink(sink)
            ExecutionEngine.shared_cache.clear()
        assert len(store.results) == 8 and not store.failures
        spans = {
            e["span_id"]: e for e in sink.events() if e["kind"] == "span"
        }

        def dataset_of(span):
            while span["name"] != "featurize":
                span = spans[span["parent_id"]]
            return span["attrs"]["dataset"]

        groupby = [s for s in spans.values() if s["name"] == "step:Groupby"]
        fresh = [s for s in groupby if not s["attrs"].get("cached")]
        assert sorted(dataset_of(s) for s in fresh) == ["F0", "F1"]
        # later cells still request the prefix; each lookup is a hit
        assert len(groupby) > len(fresh)


class TestRunner:
    def test_same_dataset_record(self):
        result = evaluate_same_dataset("A14", "F0")
        assert result.mode == "same"
        assert result.n_train > result.n_test
        assert 0.0 <= result.precision <= 1.0
        assert result.per_attack  # Figure 5 breakdown recorded

    def test_cross_dataset_record(self):
        result = evaluate_cross_dataset("A14", "F0", "F1")
        assert result.mode == "cross"
        assert result.train_dataset == "F0"
        assert result.test_dataset == "F1"

    def test_deterministic(self):
        a = evaluate_same_dataset("A14", "F0", seed=3)
        b = evaluate_same_dataset("A14", "F0", seed=3)
        assert a.precision == b.precision
        assert a.recall == b.recall

    def test_matrix_size(self, small_matrix_store):
        # 3 algorithms x (3 same + 6 ordered cross pairs) = 27
        assert len(small_matrix_store) == 27

    def test_supervised_same_dataset_strong(self, small_matrix_store):
        same = small_matrix_store.query(mode="same", algorithm="A14")
        assert min(same.values("precision")) > 0.8


class TestAnalyses:
    def test_distributions_shapes(self, small_matrix_store):
        box = distribution_by_algorithm(small_matrix_store, mode="same")
        assert set(box.groups) == {"A10", "A13", "A14"}
        assert all(len(v) == 3 for v in box.groups.values())

    def test_cross_weaker_than_same(self, small_matrix_store):
        same = distribution_by_algorithm(small_matrix_store, mode="same")
        cross = distribution_by_algorithm(small_matrix_store, mode="cross")
        for algorithm in same.groups:
            assert np.median(cross.groups[algorithm]) <= (
                np.median(same.groups[algorithm]) + 1e-9
            )

    def test_best_gap_nonnegative(self, small_matrix_store):
        gaps = best_gap_by_algorithm(small_matrix_store)
        for values in gaps.groups.values():
            assert min(values) >= -1e-9

    def test_median_matrix_diagonal_strongest(self, small_matrix_store):
        matrix = train_test_median_matrix(small_matrix_store)
        diagonal = np.nanmean(np.diag(matrix.values))
        off = matrix.values[~np.eye(len(matrix.row_labels), dtype=bool)]
        assert diagonal >= np.nanmean(off)

    def test_per_attack_heatmap_labels(self, small_matrix_store):
        heatmap = per_attack_precision(small_matrix_store)
        assert set(heatmap.row_labels) == {"A10", "A13", "A14"}
        expected_attacks = set()
        for dataset_id in ("F0", "F1", "F4"):
            expected_attacks |= set(DATASETS[dataset_id].attacks)
        assert set(heatmap.col_labels) <= expected_attacks

    def test_algorithms_below_threshold(self, small_matrix_store):
        dropped = algorithms_below(
            small_matrix_store, threshold=0.2, mode="cross"
        )
        assert isinstance(dropped, list)

    def test_no_single_best_types(self, small_matrix_store):
        assert isinstance(no_single_best(small_matrix_store), bool)

    def test_asymmetry_pairs_structure(self, small_matrix_store):
        pairs = asymmetry_pairs(small_matrix_store, gap=0.0)
        for train, test, forward, backward in pairs:
            assert train in ("F0", "F1", "F4")
            assert test in ("F0", "F1", "F4")
            assert 0.0 <= forward <= 1.0
            assert 0.0 <= backward <= 1.0
