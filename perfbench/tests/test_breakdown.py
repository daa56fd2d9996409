"""Self time and layer attribution on a synthetic span tree."""

import json

import pytest

import breakdown


def _span(span_id, parent, name, start, duration, **attrs):
    return {
        "kind": "span", "name": name, "span_id": span_id, "parent_id": parent,
        "trace_id": 1, "ts": 1000.0 + start, "duration_seconds": duration,
        "status": "ok", "attrs": attrs,
    }


#   root  [0, 10]   perfbench.w.pass (no layer)
#   ├─ a  [1, 4]    net.read_pcap
#   │  └─ a1 [2, 3] flows.assemble_pair
#   ├─ b  [3, 6]    core.process_chunk (overlaps a, as a pool thread would)
#   └─ c  [7, 8.5]  misc (no layer), with d [8, 9] sticking out of it
SPANS = [
    _span(1, None, "perfbench.w.pass", 0, 10, workload="w"),
    _span(2, 1, "net.read_pcap", 1, 3),
    _span(3, 2, "flows.assemble_pair", 2, 1),
    _span(4, 1, "core.process_chunk", 3, 3),
    _span(5, 1, "misc", 7, 1.5),
    _span(6, 5, "ml.fit", 8, 1),
]


def test_self_time_subtracts_the_union_of_children():
    selfs = breakdown.self_times(SPANS)
    assert selfs[1] == pytest.approx(10 - (5 + 1.5))  # [1,6] and [7,8.5]
    assert selfs[2] == pytest.approx(2)
    assert selfs[3] == pytest.approx(1)
    assert selfs[4] == pytest.approx(3)
    assert selfs[5] == pytest.approx(1.0)  # the child is clipped at 8.5
    assert selfs[6] == pytest.approx(1)


def test_breakdown_groups_by_root_and_ranks_layers():
    result = breakdown.breakdown(SPANS)
    entry = result["w"]
    assert entry["wall"] == pytest.approx(10)
    assert entry["layers"] == pytest.approx(
        {None: 3.5 + 1.0, "net": 2, "flows": 1, "core": 3, "ml": 1}
    )
    assert breakdown.attributed_share(entry) == pytest.approx(0.7)
    text = breakdown.render(result)
    assert text.index("core") < text.index("net") < text.index("flows")


def test_missing_parent_makes_a_root_named_group():
    orphan = _span(9, 77, "evaluate", 0, 2)
    child = _span(10, 9, "step:Labels", 0.5, 1)
    result = breakdown.breakdown([orphan, child])
    assert result["evaluate"]["wall"] == pytest.approx(2)
    assert result["evaluate"]["layers"] == pytest.approx({"bench": 1, "core": 1})


@pytest.mark.parametrize("name, layer", [
    ("net.read_pcap", "net"),
    ("ml.fit_s.A06", "ml"),
    ("step:KitsuneFeatures", "core"),
    ("score_chunk", "serve"),
    ("train", "ml"),
    ("perfbench.ingest.pass", None),
    ("nolayer", None),
    ("unknown.thing", None),
])
def test_layer_of(name, layer):
    assert breakdown.layer_of(name) == layer


def test_main_reads_jsonl_files(tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    events = SPANS + [{"kind": "event", "name": "cache.hit", "ts": 1.0, "attrs": {}}]
    path.write_text("\n".join(json.dumps(e) for e in events) + "\n")
    assert breakdown.main([str(path), str(path)]) == 0
    out = capsys.readouterr().out
    assert "workload w: traced wall 20.000 s, 70.0 % in named layers" in out
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert breakdown.main([str(empty)]) == 1
