"""Tests for the result store and heatmap renderers."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from repro.bench.heatmap import BoxData, Heatmap
from repro.bench.results import EvaluationResult, ResultStore
from repro.core.errors import InputError


def make_result(algorithm="A10", train="F0", test="F0", precision=0.9,
                recall=0.8, mode=None):
    return EvaluationResult(
        algorithm=algorithm,
        train_dataset=train,
        test_dataset=test,
        mode=mode or ("same" if train == test else "cross"),
        granularity="CONNECTION",
        precision=precision,
        recall=recall,
        f1=0.85,
        accuracy=0.9,
        n_train=700,
        n_test=300,
    )


class TestResultStore:
    def test_query_by_algorithm(self):
        store = ResultStore([make_result("A10"), make_result("A14")])
        assert len(store.query(algorithm="A10")) == 1

    def test_query_combines_filters(self):
        store = ResultStore(
            [
                make_result("A10", "F0", "F0"),
                make_result("A10", "F0", "F1"),
                make_result("A14", "F0", "F1"),
            ]
        )
        assert len(store.query(algorithm="A10", mode="cross")) == 1

    def test_datasets_collects_both_sides(self):
        store = ResultStore([make_result(train="F0", test="F3")])
        assert store.datasets() == ["F0", "F3"]

    def test_best_per_pair(self):
        store = ResultStore(
            [
                make_result("A10", precision=0.5),
                make_result("A14", precision=0.9),
            ]
        )
        assert store.best_per_pair()[("F0", "F0")] == 0.9

    def test_json_round_trip(self, tmp_path):
        store = ResultStore([make_result(), make_result("A14", "F0", "F1")])
        path = tmp_path / "results.json"
        store.save_json(path)
        loaded = ResultStore.load_json(path)
        assert len(loaded) == 2
        assert loaded.results[0] == store.results[0]

    def test_csv_export(self, tmp_path):
        store = ResultStore([make_result()])
        path = tmp_path / "results.csv"
        store.save_csv(path)
        content = path.read_text()
        assert "algorithm" in content.splitlines()[0]
        assert "A10" in content

    def test_per_attack_survives_json(self, tmp_path):
        result = EvaluationResult(
            algorithm="A10", train_dataset="F0", test_dataset="F0",
            mode="same", granularity="CONNECTION", precision=1.0,
            recall=1.0, f1=1.0, accuracy=1.0, n_train=10, n_test=10,
            per_attack={"port_scan": {"precision": 0.7, "recall": 0.5}},
        )
        store = ResultStore([result])
        path = tmp_path / "r.json"
        store.save_json(path)
        loaded = ResultStore.load_json(path)
        assert loaded.results[0].per_attack["port_scan"]["precision"] == 0.7


class TestLoadJsonRefusesBadFiles:
    """Every way a store file can be unusable is one InputError naming
    the path and, for a record, its place in the file."""

    def _load(self, tmp_path, text):
        path = tmp_path / "results.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(InputError) as info:
            ResultStore.load_json(path)
        assert str(path) in str(info.value)
        return str(info.value)

    def test_missing_file(self, tmp_path):
        assert "no result store at" in self._load(tmp_path, None)

    def test_invalid_json_names_the_line(self, tmp_path):
        message = self._load(tmp_path, "[\n{not json")
        assert "results.json:2: result store is not valid JSON" in message

    @pytest.mark.parametrize("payload", [
        {"results": "nope"}, {"failures": []}, {"results": [], "extra": 1},
        {"results": [], "failures": {}}, 3, "text",
    ])
    def test_wrong_top_level_shape(self, tmp_path, payload):
        assert "a result store is" in self._load(
            tmp_path, json.dumps(payload)
        )

    def test_non_object_record(self, tmp_path):
        message = self._load(tmp_path, "[1, 2]")
        assert message.endswith("results[0]: not a JSON object")

    def test_unknown_field(self, tmp_path):
        record = asdict(make_result())
        record["bogus"] = 1
        message = self._load(tmp_path, json.dumps([record]))
        assert message.endswith("results[0]: unknown field(s) bogus")

    def test_missing_field(self, tmp_path):
        record = asdict(make_result())
        del record["precision"], record["recall"]
        message = self._load(tmp_path, json.dumps([record]))
        assert message.endswith(
            "results[0]: missing field(s) precision, recall"
        )

    def test_bad_failure_record(self, tmp_path):
        payload = {"results": [asdict(make_result())], "failures": [[]]}
        message = self._load(tmp_path, json.dumps(payload))
        assert message.endswith("failures[0]: not a JSON object")

    @pytest.mark.parametrize("name, value, kind", [
        ("precision", "high", "str"), ("n_train", 1.5, "float"),
        ("per_attack", [], "list"), ("algorithm", None, "NoneType"),
    ])
    def test_wrong_json_type(self, tmp_path, name, value, kind):
        record = asdict(make_result())
        record[name] = value
        message = self._load(tmp_path, json.dumps([record]))
        assert message.endswith(f"results[0]: field {name!r} holds a {kind}")

    def test_an_integer_is_a_json_number(self, tmp_path):
        record = asdict(make_result())
        record["precision"] = 1
        path = tmp_path / "results.json"
        path.write_text(json.dumps([record]))
        assert ResultStore.load_json(path).results[0].precision == 1

    def test_fields_with_defaults_may_be_absent(self, tmp_path):
        record = asdict(make_result())
        del record["seconds"], record["per_attack"]
        path = tmp_path / "results.json"
        path.write_text(json.dumps([record]))
        assert ResultStore.load_json(path).results == [make_result()]


class TestHeatmap:
    def test_from_cells(self):
        heatmap = Heatmap.from_cells({("a", "x"): 0.5, ("b", "y"): 1.0})
        assert heatmap.cell("a", "x") == 0.5
        assert np.isnan(heatmap.cell("a", "y"))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Heatmap(["a"], ["x", "y"], np.zeros((2, 2)))

    def test_render_marks_missing(self):
        heatmap = Heatmap.from_cells({("a", "x"): 0.5, ("b", "y"): 1.0})
        rendered = heatmap.render()
        assert "--" in rendered
        assert "0.50" in rendered

    def test_csv_round_trippable(self):
        heatmap = Heatmap.from_cells({("a", "x"): 0.25})
        csv_text = heatmap.to_csv()
        assert "0.25" in csv_text
        assert csv_text.splitlines()[0] == ",x"

    def test_row_means_skip_nan(self):
        heatmap = Heatmap.from_cells(
            {("a", "x"): 0.4, ("a", "y"): 0.6, ("b", "x"): 1.0},
            ["a", "b"], ["x", "y"],
        )
        means = heatmap.row_means()
        assert means["a"] == pytest.approx(0.5)
        assert means["b"] == pytest.approx(1.0)


class TestBoxData:
    def test_summary_statistics(self):
        data = BoxData()
        for value in (0.0, 0.25, 0.5, 0.75, 1.0):
            data.add("g", value)
        summary = data.summary()["g"]
        assert summary["min"] == 0.0
        assert summary["median"] == 0.5
        assert summary["max"] == 1.0
        assert summary["n"] == 5

    def test_render_contains_groups(self):
        data = BoxData()
        data.add("A10", 0.9)
        data.add("A14", 0.3)
        rendered = data.render()
        assert "A10" in rendered and "A14" in rendered
