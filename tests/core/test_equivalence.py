"""Tests for the cross-template equivalence analyzer (normal form).

The canonicalization contract: idempotent, insensitive to parameter key
order, intermediate naming and independent-step order, defaults filled
before hashing, seeds folded into the fingerprint, dead branches
pruned, duplicate steps interned.
"""

import pytest

from repro.analysis.equivalence import SOURCE_FINGERPRINT, canonicalize
from repro.core.errors import TemplateDiagnosticError
from repro.core.pipeline import params_token


BASE = [
    {"func": "Groupby", "input": None, "output": "flows",
     "flowid": ["connection"]},
    {"func": "ApplyAggregates", "input": ["flows"], "output": "X",
     "list": ["count", "duration"]},
    {"func": "Labels", "input": ["flows"], "output": "y"},
]


def _step(graph, func):
    matches = [s for s in graph.steps if s.func == func]
    assert len(matches) == 1, f"expected one {func} step"
    return matches[0]


class TestCanonicalization:
    def test_idempotent(self):
        graph = canonicalize(BASE, outputs=["X", "y"])
        again = canonicalize(graph.to_template(), outputs=["X", "y"])
        assert again.fingerprint == graph.fingerprint
        assert [s.fingerprint for s in again.steps] == [
            s.fingerprint for s in graph.steps
        ]
        assert again.outputs == graph.outputs

    def test_param_key_order_irrelevant(self):
        one = [
            {"func": "Groupby", "input": None, "output": "flows",
             "flowid": ["connection"], "timeout": 1200.0},
            {"func": "Labels", "input": ["flows"], "output": "y"},
        ]
        other = [
            {"func": "Groupby", "input": None, "output": "flows",
             "timeout": 1200.0, "flowid": ["connection"]},
            {"func": "Labels", "input": ["flows"], "output": "y"},
        ]
        assert (
            canonicalize(one, outputs=["y"]).fingerprint
            == canonicalize(other, outputs=["y"]).fingerprint
        )

    def test_intermediate_names_irrelevant(self):
        renamed = [
            {**dict(step), "input": ["g"] if step["input"] else None,
             "output": "g" if step["output"] == "flows" else step["output"]}
            for step in BASE
        ]
        a = canonicalize(BASE, outputs=["X", "y"])
        b = canonicalize(renamed, outputs=["X", "y"])
        assert a.fingerprint == b.fingerprint
        assert a.outputs == b.outputs

    def test_independent_step_order_irrelevant(self):
        swapped = [BASE[0], BASE[2], BASE[1]]
        a = canonicalize(BASE, outputs=["X", "y"])
        b = canonicalize(swapped, outputs=["X", "y"])
        assert a.fingerprint == b.fingerprint
        assert [s.fingerprint for s in a.steps] == [
            s.fingerprint for s in b.steps
        ]

    def test_explicit_default_equals_omitted(self):
        spelled = [
            {"func": "Groupby", "input": None, "output": "flows",
             "flowid": ["connection"], "timeout": 3600.0},
            {"func": "Labels", "input": ["flows"], "output": "y"},
        ]
        a = canonicalize(BASE[:1] + BASE[2:], outputs=["y"])
        b = canonicalize(spelled, outputs=["y"])
        assert _step(a, "Groupby").fingerprint == \
            _step(b, "Groupby").fingerprint
        # the raw spellings differ, and the normal form remembers both
        assert _step(a, "Groupby").raw_tokens != \
            _step(b, "Groupby").raw_tokens

    def test_source_inputs_use_symbolic_fingerprint(self):
        graph = canonicalize(BASE, outputs=["X", "y"])
        assert _step(graph, "Groupby").inputs == (SOURCE_FINGERPRINT,)

    def test_error_template_has_no_normal_form(self):
        with pytest.raises(TemplateDiagnosticError):
            canonicalize(
                [{"func": "Teleport", "input": None, "output": "x"}]
            )


class TestSeedFolding:
    ONE = [{"func": "Downsample", "input": None, "output": "pkts",
            "max_packets": 50}]

    def test_different_seeds_different_fingerprints(self):
        seeded = [{**self.ONE[0], "seed": 1}]
        a = canonicalize(self.ONE)
        b = canonicalize(seeded)
        assert _step(a, "Downsample").fingerprint != \
            _step(b, "Downsample").fingerprint

    def test_omitted_seed_equals_explicit_default(self):
        explicit = [{**self.ONE[0], "seed": 0}]
        a = canonicalize(self.ONE)
        b = canonicalize(explicit)
        assert _step(a, "Downsample").fingerprint == \
            _step(b, "Downsample").fingerprint

    def test_seeded_step_is_shareable(self):
        graph = canonicalize(self.ONE)
        step = _step(graph, "Downsample")
        assert step.purity == "seeded-stochastic"
        assert step.shareable
        assert step.seeds == ("seed",)


class TestRewrites:
    def test_dead_branch_pruned(self):
        dead = BASE + [
            {"func": "ApplyAggregates", "input": ["flows"],
             "output": "unused", "list": ["pps"]},
        ]
        graph = canonicalize(dead, outputs=["X", "y"])
        assert len(graph.pruned) == 1
        assert graph.pruned[0][2] == "unused"
        assert len(graph.steps) == 3  # the dead aggregate is gone
        # pruning changes nothing about the kept outputs
        assert graph.outputs == canonicalize(BASE, outputs=["X", "y"]).outputs

    def test_duplicate_steps_interned(self):
        doubled = [
            {"func": "Groupby", "input": None, "output": "f1",
             "flowid": ["connection"]},
            {"func": "Groupby", "input": None, "output": "f2",
             "flowid": ["connection"]},
            {"func": "ApplyAggregates", "input": ["f1"], "output": "X",
             "list": ["count"]},
            {"func": "Labels", "input": ["f2"], "output": "y"},
        ]
        graph = canonicalize(doubled, outputs=["X", "y"])
        groupby = _step(graph, "Groupby")
        assert groupby.source_indices == (0, 1)
        assert len(graph.steps) == 3
        assert not graph.collisions

    def test_to_template_is_runnable_normal_form(self):
        rendered = canonicalize(BASE, outputs=["X", "y"]).to_template()
        outputs = [step["output"] for step in rendered]
        assert "X" in outputs and "y" in outputs
        # intermediates are canonical %N names
        assert all(
            name in ("X", "y") or name.startswith("%") for name in outputs
        )


class TestParamsToken:
    def test_sorted_and_stable(self):
        assert params_token({"b": 1, "a": 2}) == params_token({"a": 2, "b": 1})
        assert params_token({"a": (1, 2)}) == params_token({"a": [1, 2]})
