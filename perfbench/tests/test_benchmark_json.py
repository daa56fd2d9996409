"""BENCHMARK.json is well formed and agrees with the benchmark's code."""

import json
import re

import run
from common import ROOT
from predictions import MOVES

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")


def test_keys_and_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_command_and_paths():
    command = SPEC["command"]
    assert 1 <= len(command) <= 32 and all(len(part) <= 200 for part in command)
    assert 1 <= len(SPEC["paths"]) <= 16
    for path in SPEC["paths"]:
        assert PATH.fullmatch(path) and not path.startswith("/") and ".." not in path
        assert (ROOT / path).is_dir()
    named = [part for part in command if "/" in part]
    assert named and all(
        any(part.startswith(path + "/") for path in SPEC["paths"]) for part in named
    )


def test_names_are_valid_and_unique():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200


def test_metric_entries():
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")


def test_setup_s_has_the_largest_bound():
    bounds = {m["name"]: m for m in SPEC["end_to_end"]}
    setup = bounds["setup_s"]
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_workloads_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_every_per_layer_metric_names_what_it_should_move():
    workloads = {w["name"] for w in SPEC["workloads"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    assert {m["name"] for m in SPEC["per_layer"]} == set(MOVES)
    for name, moves in MOVES.items():
        assert moves, name
        for workload, metric in moves:
            assert workload in workloads, (name, workload)
            assert metric in end_to_end, (name, metric)
