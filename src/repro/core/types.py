"""Value types flowing through a Lumen pipeline.

The paper: "each operation in the template is a configurable operation
and has an input, output, and algorithm-specific parameter.  The input
and output of each operation can either be packets or packets grouped by
a particular attribute."  We extend that to the full set a template
needs: feature matrices, labels, models, predictions and metric bundles,
so the engine's type checker can reject ill-formed templates before any
work happens.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.flows.records import FlowTable
from repro.net.table import PacketTable


class ValueType(enum.Enum):
    """The type tag of one named value in the pipeline environment."""

    PACKETS = "packets"  # a PacketTable
    FLOWS = "flows"  # a FlowTable (grouped packets)
    FEATURES = "features"  # 2-D float ndarray
    LABELS = "labels"  # 1-D int ndarray
    MODEL = "model"  # an (un)fitted estimator
    PREDICTIONS = "predictions"  # 1-D int ndarray from a model
    METRICS = "metrics"  # dict of metric name -> float
    ANY = "any"  # escape hatch for custom operations


@dataclass(frozen=True)
class TypeInfo:
    """A runtime type tag plus the shape/dtype facts behind it.

    ``kind`` is the coarse :class:`ValueType`; the remaining fields
    carry what the vectorization analyzer (L035/L036) needs to check
    real facts: row count for any row-structured value, column count
    for feature matrices, and the numpy dtype string for array-backed
    values.  Fields are ``None`` when the fact does not apply.
    """

    kind: ValueType
    rows: int | None = None
    columns: int | None = None
    dtype: str | None = None


def infer_type_info(value: object) -> TypeInfo:
    """Best-effort runtime type info: kind plus shape/dtype metadata."""
    if isinstance(value, PacketTable):
        return TypeInfo(ValueType.PACKETS, rows=len(value))
    if isinstance(value, FlowTable):
        return TypeInfo(ValueType.FLOWS, rows=len(value))
    if isinstance(value, np.ndarray):
        dtype = str(value.dtype)
        if value.ndim == 2:
            return TypeInfo(
                ValueType.FEATURES,
                rows=value.shape[0],
                columns=value.shape[1],
                dtype=dtype,
            )
        if value.ndim == 1 and (
            np.issubdtype(value.dtype, np.integer)
            or value.dtype == np.bool_
        ):
            return TypeInfo(ValueType.LABELS, rows=len(value), dtype=dtype)
        # a 1-D float array is a feature *vector*, not labels; 0-D and
        # >2-D arrays fit no pipeline type either
        rows = len(value) if value.ndim == 1 else None
        return TypeInfo(ValueType.ANY, rows=rows, dtype=dtype)
    if isinstance(value, dict):
        if all(
            isinstance(key, str) and isinstance(val, (int, float, np.integer, np.floating))
            for key, val in value.items()
        ):
            return TypeInfo(ValueType.METRICS)
        return TypeInfo(ValueType.ANY)
    if hasattr(value, "fit") or hasattr(value, "predict"):
        return TypeInfo(ValueType.MODEL)
    return TypeInfo(ValueType.ANY)


def infer_type(value: object) -> ValueType:
    """Best-effort runtime type tag used by the engine's checks."""
    return infer_type_info(value).kind


def compatible(have: ValueType, want: ValueType) -> bool:
    """Whether a ``have`` value may feed an input declared ``want``.

    The one type rule: the same type, ``ANY`` on either side, or labels
    and predictions, which share a runtime representation.
    """
    return (
        want is ValueType.ANY
        or have is ValueType.ANY
        or have is want
        or {have, want} <= {ValueType.LABELS, ValueType.PREDICTIONS}
    )


def check_type(value: object, expected: ValueType, where: str) -> None:
    """Raise ``TypeError`` if ``value`` does not match ``expected``."""
    if expected is ValueType.ANY:
        return
    actual = infer_type(value)
    # at run time ANY means "no pipeline type", not "not known yet"
    if actual is not ValueType.ANY and compatible(actual, expected):
        return
    raise TypeError(
        f"{where}: expected a {expected.value} value, got {actual.value}"
    )
