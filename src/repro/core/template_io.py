"""Reading and writing template files.

The paper's workflow is file-centric: "the programmer ... create[s] a
configuration by only filling in the gaps on a template pipeline to
file.  ...  After the user configures a new algorithm using the template
file, the file is passed to an execution engine."  This module is that
file boundary: templates serialise to JSON (one object per operation,
exactly the in-memory format), with a library of starter templates a
user can dump and edit.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.errors import TemplateError, read_json
from repro.core.pipeline import Pipeline

#: starter templates for `repro template --starter <name>`
STARTER_TEMPLATES: dict[str, list[dict]] = {
    "connection-rf": [
        {"func": "FieldExtract", "input": None, "output": "pkts",
         "param": ["srcIP", "dstIP", "TCPFlags", "packetLength"]},
        {"func": "Groupby", "input": ["pkts"], "output": "flows",
         "flowid": ["connection"]},
        {"func": "ApplyAggregates", "input": ["flows"], "output": "X",
         "list": ["count", "duration", "bandwidth", "mean:length",
                  "std:length", "entropy:src_port", "flag_frac:SYN"]},
        {"func": "Labels", "input": ["flows"], "output": "y"},
        {"func": "model", "model_type": "RandomForest", "input": None,
         "output": "clf"},
        {"func": "train", "input": ["clf", "X", "y"], "output": "fitted"},
        {"func": "predict", "input": ["fitted", "X"], "output": "preds"},
        {"func": "evaluate", "input": ["preds", "y"], "output": "metrics"},
    ],
    "packet-anomaly": [
        {"func": "Downsample", "input": None, "output": "pkts",
         "max_packets": 3000},
        {"func": "KitsuneFeatures", "input": ["pkts"], "output": "X"},
        {"func": "Labels", "input": ["pkts"], "output": "y"},
        {"func": "model", "model_type": "KitNET", "input": None,
         "output": "clf"},
        {"func": "train", "input": ["clf", "X", "y"], "output": "fitted"},
        {"func": "predict", "input": ["fitted", "X"], "output": "preds"},
        {"func": "evaluate", "input": ["preds", "y"], "output": "metrics"},
    ],
    "windowed-flow": [
        {"func": "Groupby", "input": None, "output": "uni",
         "flowid": ["5tuple"]},
        {"func": "TimeSlice", "input": ["uni"], "output": "flows",
         "window": 10.0},
        {"func": "ApplyAggregates", "input": ["flows"], "output": "X",
         "list": ["count", "pps", "entropy:src_port", "flag_rate:SYN"]},
        {"func": "Labels", "input": ["flows"], "output": "y"},
        {"func": "model", "model_type": "GradientBoosting", "input": None,
         "output": "clf"},
        {"func": "train", "input": ["clf", "X", "y"], "output": "fitted"},
        {"func": "predict", "input": ["fitted", "X"], "output": "preds"},
        {"func": "evaluate", "input": ["preds", "y"], "output": "metrics"},
    ],
}


def save_template(template: list[dict], path: str | Path) -> None:
    """Validate, then write a template as pretty JSON.

    Validation goes through :meth:`Pipeline.from_template`, which runs
    the static analyzer -- a template that would fail ``repro lint``
    never reaches disk.
    """
    Pipeline.from_template(template)  # reject malformed templates early
    Path(path).write_text(json.dumps(template, indent=2) + "\n")


def load_template(path: str | Path) -> list[dict]:
    """Read a template file.

    The one reader of the format: raises :class:`TemplateError` naming
    the path and the reason for a missing, unreadable or non-JSON file
    and for a top level that is not an array.  The steps themselves are
    checked by the analyzer (:meth:`Pipeline.from_template`).
    """
    payload = read_json(path, "template file", TemplateError)
    if not isinstance(payload, list):
        raise TemplateError(
            f"{path}: a template file must contain a JSON array"
        )
    return payload


def load_pipeline(path: str | Path) -> Pipeline:
    """Read and validate a template file in one step."""
    return Pipeline.from_template(load_template(path))


def starter_template(name: str) -> list[dict]:
    """One of the built-in starter templates, deep-copied for editing."""
    if name not in STARTER_TEMPLATES:
        raise KeyError(
            f"unknown starter {name!r}; available: {sorted(STARTER_TEMPLATES)}"
        )
    return json.loads(json.dumps(STARTER_TEMPLATES[name]))
