"""The Lumen development framework.

This is the paper's primary contribution: a modular framework in which
an ML-based anomaly-detection algorithm is written as a *template* -- a
sequence of configurable operations (Figure 4 of the paper) -- and
executed by an engine that validates the template, shares intermediate
results across algorithms, profiles every operation and performs basic
memory optimisation (dead-value elimination).

* :mod:`repro.core.types` -- the value types flowing between operations.
* :mod:`repro.core.operations` -- the operation library (~30 configurable
  operations: field extraction, group-by, time slicing, aggregates,
  normalisation, models, train/predict/evaluate, ...).
* :mod:`repro.core.pipeline` -- the template language and its validator.
* :mod:`repro.core.engine` -- the execution engine.
* :mod:`repro.core.incstats` -- Kitsune-style damped incremental
  statistics (the packet-level feature substrate of algorithm A06).
* :mod:`repro.core.profiling` -- per-operation time/memory profiles.
"""

from repro.core.types import TypeInfo, ValueType, infer_type_info
from repro.core.errors import (
    InputError,
    PipelineError,
    TemplateDiagnosticError,
    TemplateError,
)
from repro.core.pipeline import Pipeline, OperationCall
from repro.core.engine import ExecutionEngine, StreamSession, StreamSnapshot
from repro.core.operations import (
    OPERATIONS,
    Operation,
    register_operation,
)
from repro.core.profiling import OperationProfile, ProfileReport
from repro.core.template_io import (
    STARTER_TEMPLATES,
    load_pipeline,
    load_template,
    save_template,
    starter_template,
)

__all__ = [
    "TypeInfo",
    "ValueType",
    "infer_type_info",
    "InputError",
    "PipelineError",
    "TemplateDiagnosticError",
    "TemplateError",
    "Pipeline",
    "OperationCall",
    "ExecutionEngine",
    "StreamSession",
    "StreamSnapshot",
    "OPERATIONS",
    "Operation",
    "register_operation",
    "OperationProfile",
    "ProfileReport",
    "STARTER_TEMPLATES",
    "load_pipeline",
    "load_template",
    "save_template",
    "starter_template",
]
