"""The Lumen operation library.

The paper identifies "around 30 unique operations such as extracting
fields, time slicing, grouping, computing aggregates, feature
normalization etc." and makes each configurable so that "fewer efficient
implementations" cover the whole literature.  This module is that
library.  Every operation declares its input/output value types (used by
the template validator) and a pure ``fn(inputs, params)`` body (used by
the engine, which adds caching and profiling around it).

Operations are looked up by name from templates (see
:mod:`repro.core.pipeline`); new ones can be added with
:func:`register_operation`, which is how the framework is extensible.
"""

from __future__ import annotations

import copy
import dataclasses
import linecache
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.core.errors import TemplateError
from repro.core.segments import (
    flow_membership,
    segmented_entropy,
    segmented_median,
    segmented_nunique,
)
from repro.core.types import ValueType
from repro.flows import Granularity, assemble_flows
from repro.flows.records import FlowTable
from repro.ml import (
    AnomalyThresholdClassifier,
    AutoML,
    Autoencoder,
    GradientBoostingClassifier,
    IsolationForest,
    CorrelatedFeatureRemover,
    DecisionTreeClassifier,
    GaussianNB,
    GMMAnomalyDetector,
    KernelOCSVM,
    KitNET,
    KNeighborsClassifier,
    LinearOCSVM,
    LinearSVC,
    LogisticRegression,
    MinMaxScaler,
    MLPClassifier,
    PCA,
    RandomForestClassifier,
    StandardScaler,
    VarianceThreshold,
    VotingClassifier,
    classification_summary,
)
from repro.ml.base import clone
from repro.ml.kernels import Nystroem
from repro.ml.pipeline_model import TransformedClassifier
from repro.net.headers import TCPFlags
from repro.net.table import PACKET_COLUMNS, PacketTable

OpFn = Callable[[list, dict], object]
#: chunked implementation: ``fn(inputs, params, state)`` where ``state``
#: is a per-step dict the engine persists across chunks of one stream
StreamFn = Callable[[list, dict, dict], object]

#: symbolic carried-state budgets accepted by ``state_bound=``
STATE_BOUNDS = ("O(1)", "O(window)", "O(flows)", "O(n)")


@dataclass(frozen=True)
class Operation:
    """One registered, configurable operation."""

    name: str
    input_types: tuple[ValueType, ...]
    output_type: ValueType
    fn: OpFn
    required_params: tuple[str, ...] = ()
    optional_params: dict[str, Any] = field(default_factory=dict)
    description: str = ""
    #: the column whose ordering the op's output depends on, when the
    #: implementation is row-order sensitive (L038 gate)
    sort_key: str | None = None
    #: optional chunked implementation carrying state across chunks;
    #: its presence is the streaming declaration the analyzer checks
    #: (L041-L047) before ``Engine.run_stream`` may chunk the op
    stream_fn: StreamFn | None = None
    #: declared carried-state budget (one of :data:`STATE_BOUNDS`);
    #: exceeding it is an L048 error
    state_bound: str | None = None

    def validate_params(self, params: dict) -> dict:
        """Check required params are present and fill defaults."""
        for name in self.required_params:
            if name not in params:
                raise TemplateError(
                    f"operation {self.name!r} is missing required "
                    f"parameter {name!r}"
                )
        unknown = (
            set(params) - set(self.required_params) - set(self.optional_params)
        )
        if unknown:
            raise TemplateError(
                f"operation {self.name!r} got unknown parameters: "
                f"{sorted(unknown)}"
            )
        # deep-copy the defaults: a shallow copy would hand every call
        # the *same* list/dict default object, so one pipeline mutating
        # its params would silently rewrite the registry's defaults for
        # every later call (the classic shared-mutable-default hazard
        # the effect analyzer exists to catch)
        merged = copy.deepcopy(self.optional_params)
        merged.update(params)
        return merged


OPERATIONS: dict[str, Operation] = {}


def _pin_source(fn: Callable) -> None:
    """Keep the lines of ``fn``'s file, as they read at registration, on
    ``fn`` for :func:`repro.analysis.facts.load_source`."""
    code = getattr(fn, "__code__", None)
    if code is not None:
        linecache.checkcache(code.co_filename)
        fn.__source_lines__ = linecache.getlines(code.co_filename, fn.__globals__)


def register_operation(
    name: str,
    input_types: tuple[ValueType, ...],
    output_type: ValueType,
    required_params: tuple[str, ...] = (),
    optional_params: dict[str, Any] | None = None,
    description: str = "",
    sort_key: str | None = None,
    state_bound: str | None = None,
) -> Callable[[OpFn], OpFn]:
    """Decorator registering a function as a framework operation."""

    def wrap(fn: OpFn) -> OpFn:
        if name in OPERATIONS:
            raise ValueError(f"operation {name!r} registered twice")
        if state_bound is not None and state_bound not in STATE_BOUNDS:
            raise ValueError(
                f"operation {name!r}: state_bound={state_bound!r} is "
                f"not one of {STATE_BOUNDS}"
            )
        _pin_source(fn)
        OPERATIONS[name] = Operation(
            name=name,
            input_types=input_types,
            output_type=output_type,
            fn=fn,
            required_params=required_params,
            optional_params=dict(optional_params or {}),
            description=description or (fn.__doc__ or "").strip(),
            sort_key=sort_key,
            state_bound=state_bound,
        )
        return fn

    return wrap


def register_stream(name: str) -> Callable[[StreamFn], StreamFn]:
    """Decorator attaching a ``stream_fn=`` chunked body to an operation.

    The stream body takes ``(inputs, params, state)`` where ``state``
    is a dict the engine persists across the chunks of one stream.
    Processing a time-ordered trace chunk by chunk must reproduce the
    batch result byte for byte (any documented float tolerance lives
    with the op).  Attach one only to an operation that carries state
    across chunks: a stateless verdict already streams through ``fn``
    per chunk.  The body is the streaming declaration: the analyzer
    checks it (L041/L042/L043/L047) and refuses it on an operation it
    does not prove streamable (L045).
    """

    def wrap(fn: StreamFn) -> StreamFn:
        operation = OPERATIONS.get(name)
        if operation is None:
            raise ValueError(
                f"cannot attach stream implementation: operation "
                f"{name!r} is not registered"
            )
        if operation.stream_fn is not None:
            raise ValueError(
                f"operation {name!r} already has a stream implementation"
            )
        _pin_source(fn)
        OPERATIONS[name] = dataclasses.replace(operation, stream_fn=fn)
        return fn

    return wrap


# ----------------------------------------------------------------------
# Packet-domain operations
# ----------------------------------------------------------------------

_FIELD_ALIASES = {
    "srcIP": "src_ip",
    "dstIP": "dst_ip",
    "srcPort": "src_port",
    "dstPort": "dst_port",
    "TCPFlags": "tcp_flags",
    "packetLength": "length",
    "time": "ts",
    "protocol": "proto",
}


def _resolve_field(name: str) -> str:
    resolved = _FIELD_ALIASES.get(name, name)
    if resolved not in PACKET_COLUMNS:
        raise TemplateError(f"unknown packet field: {name!r}")
    return resolved


#: public alias used by the static analyzer's parameter-value checks
resolve_field = _resolve_field

#: predicates accepted by FilterPackets (kept in sync with the op body)
FILTER_PREDICATES = ("tcp", "udp", "icmp", "ip", "non_ip", "wlan")


@register_operation(
    "FieldExtract",
    (ValueType.PACKETS,),
    ValueType.PACKETS,
    required_params=("fields",),
    description="Validate and declare the packet fields a pipeline uses.",
)
def _field_extract(inputs: list, params: dict) -> PacketTable:
    table: PacketTable = inputs[0]
    for name in params["fields"]:
        _resolve_field(name)
    # The columnar table already holds every field; extraction is a
    # declaration the validator checks, and at runtime a no-op view.
    return table


@register_operation(
    "FilterPackets",
    (ValueType.PACKETS,),
    ValueType.PACKETS,
    required_params=("keep",),
    description="Keep only packets matching a named predicate "
    "(tcp/udp/icmp/ip/non_ip/wlan).",
)
def _filter_packets(inputs: list, params: dict) -> PacketTable:
    table: PacketTable = inputs[0]
    predicates = {
        "tcp": table.proto == 6,
        "udp": table.proto == 17,
        "icmp": table.proto == 1,
        "ip": table.l3 != 0,
        "non_ip": table.l3 == 0,
        "wlan": table.l2 == 105,
    }
    keep = params["keep"]
    if keep not in predicates:
        raise TemplateError(f"unknown packet predicate: {keep!r}")
    return table.select(predicates[keep])


@register_operation(
    "SortByTime",
    (ValueType.PACKETS,),
    ValueType.PACKETS,
    description="Stable sort of the trace by capture timestamp.",
)
def _sort_by_time(inputs: list, params: dict) -> PacketTable:
    return inputs[0].sort_by_time()


@register_operation(
    "Downsample",
    (ValueType.PACKETS,),
    ValueType.PACKETS,
    required_params=("max_packets",),
    optional_params={"seed": 0},
    description="Uniform random downsample to at most max_packets rows.",
)
def _downsample(inputs: list, params: dict) -> PacketTable:
    table: PacketTable = inputs[0]
    limit = int(params["max_packets"])
    if limit <= 0:
        raise TemplateError("max_packets must be positive")
    if len(table) <= limit:
        return table
    rng = np.random.default_rng(params["seed"])
    keep = np.sort(rng.choice(len(table), size=limit, replace=False))
    return table.select(keep)


_GRANULARITY_BY_FLOWID: dict[tuple[str, ...], Granularity] = {
    ("srcIp",): Granularity.PAIR,  # legacy alias used by templates
    ("srcIp", "dstIp"): Granularity.PAIR,
    ("5tuple",): Granularity.UNI_FLOW,
    ("connection",): Granularity.CONNECTION,
}

#: public alias used by the static analyzer's faithfulness pass
GRANULARITY_BY_FLOWID = _GRANULARITY_BY_FLOWID


@register_operation(
    "Groupby",
    (ValueType.PACKETS,),
    ValueType.FLOWS,
    required_params=("flowid",),
    optional_params={"timeout": 3600.0, "window": None},
    description="Group packets into flows: by 5-tuple ('5tuple'), "
    "bidirectionally ('connection'), or by srcIP/dstIP pair.",
)
def _groupby(inputs: list, params: dict) -> FlowTable:
    table: PacketTable = inputs[0]
    flowid = tuple(params["flowid"])
    if flowid not in _GRANULARITY_BY_FLOWID:
        raise TemplateError(
            f"unsupported flowid {list(flowid)!r}; supported: "
            f"{[list(k) for k in _GRANULARITY_BY_FLOWID]}"
        )
    granularity = _GRANULARITY_BY_FLOWID[flowid]
    return assemble_flows(
        table, granularity, timeout=params["timeout"], window=params["window"]
    )


@register_operation(
    "TimeSlice",
    (ValueType.FLOWS,),
    ValueType.FLOWS,
    required_params=("window",),
    description="Subdivide each flow into fixed windows of `window` "
    "seconds from its first packet (flow features then describe "
    "per-window behaviour); a window is a run of one flow's packets.",
    sort_key="ts",
)
def _time_slice(inputs: list, params: dict) -> FlowTable:
    flows: FlowTable = inputs[0]
    window = float(params["window"])
    if window <= 0:
        raise TemplateError("window must be positive")
    table = flows.packets
    # FlowTable keeps each flow a contiguous range of ``order``, in flow
    # order.  Windows only split those ranges, so the result reuses the
    # input's ``order`` and ``forward``: a window starts wherever the
    # flow or the packet's window index changes.
    membership = flow_membership(flows.starts, flows.counts)
    ts = table.ts[flows.order]
    slot = ((ts - ts[flows.starts][membership]) // window).astype(np.int64)
    new_window = np.ones(len(ts), dtype=bool)
    np.not_equal(membership[1:], membership[:-1], out=new_window[1:])
    new_window[1:] |= slot[1:] != slot[:-1]
    starts = np.flatnonzero(new_window)
    counts = np.diff(starts, append=len(ts))
    keep = membership[starts]
    # Window labels re-derive from member packets: a window of a
    # malicious flow that contains only benign packets stays benign.
    if len(ts):
        order = flows.order
        labels = (np.maximum.reduceat(table.label[order], starts) > 0).astype(np.uint8)
        attack_ids = np.where(
            labels == 1, np.maximum.reduceat(table.attack_id[order], starts), -1
        ).astype(np.int16)
    else:
        labels = flows.labels[:0]
        attack_ids = flows.attack_ids[:0]
    return FlowTable(
        packets=table,
        granularity=flows.granularity,
        order=flows.order,
        starts=starts,
        counts=counts,
        key_columns={
            name: column[keep] for name, column in flows.key_columns.items()
        },
        labels=labels,
        attack_ids=attack_ids,
        forward=flows.forward,
    )


# ----------------------------------------------------------------------
# Feature-producing operations
# ----------------------------------------------------------------------


@register_operation(
    "PacketFields",
    (ValueType.PACKETS,),
    ValueType.FEATURES,
    required_params=("fields",),
    description="Per-packet numeric feature matrix from raw fields.",
)
def _packet_fields(inputs: list, params: dict) -> np.ndarray:
    table: PacketTable = inputs[0]
    columns = [
        table.columns[_resolve_field(name)].astype(np.float64)
        for name in params["fields"]
    ]
    return np.column_stack(columns) if columns else np.empty((len(table), 0))


@register_operation(
    "ProtocolOneHot",
    (ValueType.PACKETS,),
    ValueType.FEATURES,
    description="One-hot encoding of the transport protocol per packet.",
)
def _protocol_one_hot(inputs: list, params: dict) -> np.ndarray:
    # the comparisons write straight into the float output columns
    table: PacketTable = inputs[0]
    out = np.empty((len(table), 4))
    np.equal(table.proto, 6, out=out[:, 0], casting="unsafe")
    np.equal(table.proto, 17, out=out[:, 1], casting="unsafe")
    np.equal(table.proto, 1, out=out[:, 2], casting="unsafe")
    np.equal(table.l3, 0, out=out[:, 3], casting="unsafe")
    return out


@register_operation(
    "WlanFeatures",
    (ValueType.PACKETS,),
    ValueType.FEATURES,
    description="802.11 frame features: type/subtype one-hots, length, "
    "and broadcast flag; zero rows for non-WLAN packets.",
)
def _wlan_features(inputs: list, params: dict) -> np.ndarray:
    # scatter the one-hots only at WLAN rows; on mostly-wired traffic
    # nearly all rows stay zero
    table: PacketTable = inputs[0]
    n = len(table)
    out = np.zeros((n, 22))
    wlan = table.l2 == 105
    out[:, 0] = wlan
    idx = np.flatnonzero(wlan)
    types = table.wlan_type[idx].astype(np.int64)
    ok = types < 3
    out[idx[ok], 1 + types[ok]] = 1.0
    subtypes = table.wlan_subtype[idx].astype(np.int64)
    ok = subtypes < 16
    out[idx[ok], 4 + subtypes[ok]] = 1.0
    out[:, 20] = table.dst_mac == 0xFFFFFFFFFFFF
    out[:, 21] = table.length
    return out


def _tcp_flag_bit(name: str) -> int:
    try:
        return int(TCPFlags[name.upper()])
    except KeyError as exc:
        raise TemplateError(f"unknown TCP flag: {name!r}") from exc


_NPRINT_LAYERS = ("ipv4", "tcp", "udp", "icmp", "payload")


def _nprint_bits(values: np.ndarray, width: int) -> np.ndarray:
    integers = values.astype(np.uint64)[:, None]
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)[None, :]
    return ((integers >> shifts) & np.uint64(1)).astype(np.float64)


@register_operation(
    "NprintEncode",
    (ValueType.PACKETS,),
    ValueType.FEATURES,
    optional_params={"layers": list(_NPRINT_LAYERS),
                     "payload_bytes": 8},
    description="nPrint-style aligned header-bit representation: one "
    "column per header bit of the selected layers; -1 where the layer "
    "is absent (here encoded as 0/1 with a presence column per layer).",
)
def _nprint_encode(inputs: list, params: dict) -> np.ndarray:
    table: PacketTable = inputs[0]
    layers = params["layers"]
    unknown = set(layers) - set(_NPRINT_LAYERS)
    if unknown:
        raise TemplateError(f"unknown nprint layers: {sorted(unknown)}")
    n = len(table)
    blocks: list[np.ndarray] = []
    if "ipv4" in layers:
        present = (table.l3 == 4).astype(np.float64)[:, None]
        blocks.append(present)
        blocks.append(_nprint_bits(table.src_ip, 32) * present)
        blocks.append(_nprint_bits(table.dst_ip, 32) * present)
        blocks.append(_nprint_bits(table.ttl, 8) * present)
        blocks.append(_nprint_bits(table.proto, 8) * present)
        blocks.append(_nprint_bits(table.length, 16) * present)
    if "tcp" in layers:
        present = (table.proto == 6).astype(np.float64)[:, None]
        blocks.append(present)
        blocks.append(_nprint_bits(table.src_port, 16) * present)
        blocks.append(_nprint_bits(table.dst_port, 16) * present)
        blocks.append(_nprint_bits(table.tcp_flags, 8) * present)
        blocks.append(_nprint_bits(table.window, 16) * present)
    if "udp" in layers:
        present = (table.proto == 17).astype(np.float64)[:, None]
        blocks.append(present)
        blocks.append(_nprint_bits(table.src_port, 16) * present)
        blocks.append(_nprint_bits(table.dst_port, 16) * present)
        blocks.append(_nprint_bits(table.payload_len, 16) * present)
    if "icmp" in layers:
        present = (table.proto == 1).astype(np.float64)[:, None]
        blocks.append(present)
        blocks.append(_nprint_bits(table.payload_len, 16) * present)
    if "payload" in layers:
        width = int(params["payload_bytes"]) * 8
        blocks.append(_nprint_bits(np.minimum(table.payload_len, 2**16 - 1), 16))
        # tables keep no payload bytes: length-derived pseudo-content
        blocks.append(_nprint_bits(table.payload_len % 251, width))
    return np.hstack(blocks) if blocks else np.empty((n, 0))


@register_operation(
    "KitsuneFeatures",
    (ValueType.PACKETS,),
    ValueType.FEATURES,
    optional_params={"lambdas": [1.0, 0.1, 0.01]},
    description="Kitsune damped incremental statistics per packet "
    "(source/channel/socket groupings "
    "x decay rates).",
    sort_key="ts",
    state_bound="O(flows)",
)
def _kitsune_features(inputs: list, params: dict) -> np.ndarray:
    from repro.core.incstats import kitsune_packet_features

    return kitsune_packet_features(inputs[0], tuple(params["lambdas"]))


@register_stream("KitsuneFeatures")
def _kitsune_features_stream(
    inputs: list, params: dict, state: dict
) -> np.ndarray:
    # The damped accumulators fold across chunks: the batch body runs
    # the same KitsuneStreamState on a fresh state, so replaying a
    # time-ordered trace chunk by chunk reproduces its matrix byte for
    # byte.
    from repro.core.incstats import (
        KitsuneStreamState,
        kitsune_packet_features_stream,
    )

    lambdas = tuple(params["lambdas"])
    ks = state.get("kitsune")
    if ks is None:
        ks = KitsuneStreamState(lambdas)
        state["kitsune"] = ks
    return kitsune_packet_features_stream(inputs[0], lambdas, ks)


_AGGREGATE_SIMPLE = frozenset(
    {"count", "duration", "bandwidth", "pps", "iat_mean", "iat_std",
     "frac_fwd", "bytes_ratio"}
)
_AGGREGATE_COLUMN = frozenset(
    {"mean", "std", "min", "max", "sum", "first", "last", "median",
     "nunique", "entropy"}
)


def check_aggregate_spec(spec: object) -> None:
    """Statically validate one ApplyAggregates spec string.

    Raises :class:`TemplateError` for specs the runtime would reject,
    so the analyzer can flag typos like ``entropy:warp_core`` before
    any trace is generated.
    """
    if not isinstance(spec, str):
        raise TemplateError(f"aggregate spec must be a string: {spec!r}")
    head, _, arg = spec.partition(":")
    if head in _AGGREGATE_SIMPLE:
        return
    if head in _AGGREGATE_COLUMN:
        _resolve_field(arg)
        return
    if head in ("flag_frac", "flag_rate"):
        _tcp_flag_bit(arg)
        return
    raise TemplateError(f"unknown aggregate spec: {spec!r}")


_AGGREGATE_DOC = """Aggregate functions over grouped packets.

Each spec is a string:
  count | duration | bandwidth | pps | iat_mean | iat_std |
  mean:<col> | std:<col> | min:<col> | max:<col> | sum:<col> |
  median:<col> | first:<col> | last:<col> |
  nunique:<col> | entropy:<col> | flag_frac:<FLAG> | flag_rate:<FLAG> |
  frac_fwd | bytes_ratio
"""


@register_operation(
    "ApplyAggregates",
    (ValueType.FLOWS,),
    ValueType.FEATURES,
    required_params=("list",),
    description=_AGGREGATE_DOC,
    sort_key="ts",
)
def _apply_aggregates(inputs: list, params: dict) -> np.ndarray:
    flows: FlowTable = inputs[0]
    specs = params["list"]
    if not specs:
        raise TemplateError("ApplyAggregates needs at least one spec")
    n_flows = len(flows)
    membership = flow_membership(flows.starts, flows.counts)
    columns: list[np.ndarray] = []
    durations = flows.durations
    safe_duration = np.maximum(durations, 1e-6)
    for spec in specs:
        head, _, arg = spec.partition(":")
        if head == "count":
            columns.append(flows.counts.astype(np.float64))
        elif head == "duration":
            columns.append(durations)
        elif head == "bandwidth":
            columns.append(flows.total_bytes / safe_duration)
        elif head == "pps":
            columns.append(flows.counts / safe_duration)
        elif head in ("iat_mean", "iat_std"):
            ts = flows.segment("ts")
            gaps = np.diff(ts, prepend=ts[0] if len(ts) else 0.0)
            if len(ts):
                gaps[flows.starts] = 0.0  # no gap before a flow's first packet
            columns.append(
                flows.reduce(gaps, "mean" if head == "iat_mean" else "std")
            )
        elif head in ("mean", "std", "min", "max", "sum", "first", "last"):
            values = flows.segment(_resolve_field(arg)).astype(np.float64)
            columns.append(flows.reduce(values, head))
        elif head == "median":
            values = flows.segment(_resolve_field(arg)).astype(np.float64)
            columns.append(
                segmented_median(membership, values, flows.starts, flows.counts)
            )
        elif head == "nunique":
            values = flows.segment(_resolve_field(arg))
            columns.append(segmented_nunique(membership, values, n_flows))
        elif head == "entropy":
            values = flows.segment(_resolve_field(arg))
            columns.append(segmented_entropy(membership, values, n_flows))
        elif head in ("flag_frac", "flag_rate"):
            bit = _tcp_flag_bit(arg)
            has_flag = (
                (flows.segment("tcp_flags") & bit) > 0
            ).astype(np.float64)
            total = flows.reduce(has_flag, "sum")
            if head == "flag_frac":
                columns.append(total / np.maximum(flows.counts, 1))
            else:
                columns.append(total / safe_duration)
        elif head == "frac_fwd":
            fwd = flows.forward.astype(np.float64)
            columns.append(
                flows.reduce(fwd, "sum") / np.maximum(flows.counts, 1)
            )
        elif head == "bytes_ratio":
            lengths = flows.segment("length").astype(np.float64)
            fwd_bytes = flows.reduce(lengths * flows.forward, "sum")
            bwd_bytes = flows.reduce(lengths * ~flows.forward, "sum")
            columns.append(fwd_bytes / np.maximum(bwd_bytes, 1.0))
        else:
            raise TemplateError(f"unknown aggregate spec: {spec!r}")
    return np.column_stack(columns) if n_flows else np.empty((0, len(columns)))


@register_operation(
    "FirstNPackets",
    (ValueType.FLOWS,),
    ValueType.FEATURES,
    optional_params={"n": 8, "include_iat": True, "include_direction": True},
    description="Per-flow vector of the first N packet sizes (and "
    "optionally inter-arrivals and directions), zero-padded.",
    sort_key="ts",
)
def _first_n_packets(inputs: list, params: dict) -> np.ndarray:
    # one (n_flows, n) gather per block; masked positions clamp to 0
    # and are zeroed afterwards
    flows: FlowTable = inputs[0]
    n = int(params["n"])
    if n <= 0:
        raise TemplateError("n must be positive")
    lengths = flows.segment("length").astype(np.float64)
    ts = flows.segment("ts")
    cols = np.arange(n)
    counts = np.minimum(flows.counts, n)
    mask = cols[None, :] < counts[:, None]
    pos = np.where(mask, flows.starts[:, None] + cols[None, :], 0)
    out_blocks = [np.where(mask, lengths[pos], 0.0)]
    if params["include_iat"]:
        gathered = ts[pos]
        iats = np.zeros((len(flows), n))
        iats[:, 1:] = np.where(
            mask[:, 1:], np.diff(gathered, axis=1), 0.0
        )
        out_blocks.append(iats)
    if params["include_direction"]:
        out_blocks.append(
            np.where(mask, flows.forward[pos] * 2.0 - 1.0, 0.0)
        )
    return np.hstack(out_blocks)


@register_operation(
    "ZeekConnLog",
    (ValueType.FLOWS,),
    ValueType.FEATURES,
    description="Zeek conn.log-style per-connection record: duration, "
    "orig/resp packet and byte counts, protocol one-hot, service port "
    "class, and connection-state approximations from TCP flags.",
)
def _zeek_conn_log(inputs: list, params: dict) -> np.ndarray:
    flows: FlowTable = inputs[0]
    lengths = flows.segment("length").astype(np.float64)
    flags = flows.segment("tcp_flags")
    fwd = flows.forward
    orig_pkts = flows.reduce(fwd.astype(np.float64), "sum")
    resp_pkts = flows.counts - orig_pkts
    orig_bytes = flows.reduce(lengths * fwd, "sum")
    resp_bytes = flows.reduce(lengths * ~fwd, "sum")
    proto = flows.key_columns.get(
        "proto", np.zeros(len(flows), dtype=np.uint8)
    )
    syn = flows.reduce(((flags & 0x02) > 0).astype(np.float64), "sum")
    fin = flows.reduce(((flags & 0x01) > 0).astype(np.float64), "sum")
    rst = flows.reduce(((flags & 0x04) > 0).astype(np.float64), "sum")
    established = ((syn > 0) & (fin > 0) & (rst == 0)).astype(np.float64)
    rejected = ((syn > 0) & (rst > 0)).astype(np.float64)
    half_open = ((syn > 0) & (fin == 0) & (rst == 0)).astype(np.float64)
    well_known = (
        flows.key_columns.get("dst_port", np.zeros(len(flows))) < 1024
    ).astype(np.float64)
    return np.column_stack(
        [
            flows.durations,
            orig_pkts,
            resp_pkts,
            orig_bytes,
            resp_bytes,
            (proto == 6).astype(np.float64),
            (proto == 17).astype(np.float64),
            (proto == 1).astype(np.float64),
            established,
            rejected,
            half_open,
            well_known,
        ]
    )


@register_operation(
    "FlowDiscriminators",
    (ValueType.FLOWS,),
    ValueType.FEATURES,
    description="Moore-Zuev style per-flow discriminator battery "
    "(size/timing/flag statistics in both directions).",
    sort_key="ts",
)
def _flow_discriminators(inputs: list, params: dict) -> np.ndarray:
    flows: FlowTable = inputs[0]
    lengths = flows.segment("length").astype(np.float64)
    payloads = flows.segment("payload_len").astype(np.float64)
    windows = flows.segment("window").astype(np.float64)
    ttls = flows.segment("ttl").astype(np.float64)
    ts = flows.segment("ts")
    gaps = np.diff(ts, prepend=ts[0] if len(ts) else 0.0)
    if len(ts):
        gaps[flows.starts] = 0.0
    fwd = flows.forward.astype(np.float64)
    membership = flow_membership(flows.starts, flows.counts)
    n_flows = len(flows)
    blocks = [
        flows.counts.astype(np.float64),
        flows.durations,
        flows.total_bytes,
    ]
    for values in (lengths, payloads, gaps, windows, ttls):
        for how in ("mean", "std", "min", "max"):
            blocks.append(flows.reduce(values, how))
    blocks.append(segmented_median(membership, lengths, flows.starts, flows.counts))
    blocks.append(segmented_median(membership, gaps, flows.starts, flows.counts))
    # directional splits
    blocks.append(flows.reduce(fwd, "sum"))
    blocks.append(flows.reduce(lengths * fwd, "sum"))
    blocks.append(flows.reduce(lengths * (1.0 - fwd), "sum"))
    blocks.append(flows.reduce(lengths * fwd, "mean"))
    blocks.append(flows.reduce(lengths * (1.0 - fwd), "mean"))
    # flag battery
    for flag in ("SYN", "ACK", "PSH", "RST", "FIN", "URG"):
        bit = _tcp_flag_bit(flag)
        has_flag = ((flows.segment("tcp_flags") & bit) > 0).astype(np.float64)
        blocks.append(flows.reduce(has_flag, "sum"))
    blocks.append(segmented_nunique(membership, flows.segment("src_port"), n_flows))
    blocks.append(segmented_nunique(membership, flows.segment("dst_port"), n_flows))
    return np.column_stack(blocks)


@register_operation(
    "PairVolumes",
    (ValueType.FLOWS,),
    ValueType.FEATURES,
    description="Per src/dst-pair volume vector (A11): packet and byte "
    "counts, rates, size statistics and port spread.",
)
def _pair_volumes(inputs: list, params: dict) -> np.ndarray:
    flows: FlowTable = inputs[0]
    lengths = flows.segment("length").astype(np.float64)
    membership = flow_membership(flows.starts, flows.counts)
    n_flows = len(flows)
    safe_duration = np.maximum(flows.durations, 1e-6)
    return np.column_stack(
        [
            flows.counts.astype(np.float64),
            flows.total_bytes,
            flows.counts / safe_duration,
            flows.total_bytes / safe_duration,
            flows.reduce(lengths, "mean"),
            flows.reduce(lengths, "std"),
            segmented_nunique(membership, flows.segment("dst_port"), n_flows),
            segmented_nunique(membership, flows.segment("src_port"), n_flows),
            segmented_entropy(membership, flows.segment("dst_port"), n_flows),
        ]
    )


@register_operation(
    "ConcatFeatures",
    (ValueType.FEATURES, ValueType.FEATURES),
    ValueType.FEATURES,
    description="Column-wise concatenation of two aligned feature "
    "matrices.",
)
def _concat_features(inputs: list, params: dict) -> np.ndarray:
    left, right = inputs
    if len(left) != len(right):
        raise TemplateError(
            f"cannot concat features with {len(left)} and {len(right)} rows"
        )
    return np.hstack([left, right])


@register_operation(
    "SelectColumns",
    (ValueType.FEATURES,),
    ValueType.FEATURES,
    required_params=("indices",),
    description="Keep only the selected feature columns.",
)
def _select_columns(inputs: list, params: dict) -> np.ndarray:
    features: np.ndarray = inputs[0]
    indices = list(params["indices"])
    if any(not 0 <= i < features.shape[1] for i in indices):
        raise TemplateError(
            f"column index out of range for {features.shape[1]} features"
        )
    return features[:, indices]


@register_operation(
    "Labels",
    (ValueType.ANY,),
    ValueType.LABELS,
    description="Ground-truth labels of the input packets or flows.",
)
def _labels(inputs: list, params: dict) -> np.ndarray:
    source = inputs[0]
    if isinstance(source, PacketTable):
        return source.label.astype(np.int64)
    if isinstance(source, FlowTable):
        return source.labels.astype(np.int64)
    raise TemplateError("Labels expects packets or flows")


# ----------------------------------------------------------------------
# Feature-space transforms (per-dataset; see TransformedClassifier for
# the train-fitted variants used by the reproduced algorithms)
# ----------------------------------------------------------------------


@register_operation(
    "Normalize",
    (ValueType.FEATURES,),
    ValueType.FEATURES,
    optional_params={"method": "standard"},
    description="Whole-matrix normalisation (standard or minmax). For "
    "leakage-free evaluation prefer the WithScaler model wrapper.",
)
def _normalize(inputs: list, params: dict) -> np.ndarray:
    method = params["method"]
    if method == "standard":
        return StandardScaler().fit_transform(inputs[0])
    if method == "minmax":
        return MinMaxScaler().fit_transform(inputs[0])
    raise TemplateError(f"unknown normalisation method: {method!r}")


# ----------------------------------------------------------------------
# Model operations
# ----------------------------------------------------------------------


def _model_factory(model_type: str, params: dict):
    seed = params.get("seed", 0)
    if model_type == "RandomForest":
        return RandomForestClassifier(
            n_estimators=params.get("n_estimators", 30),
            max_depth=params.get("max_depth"),
            seed=seed,
        )
    if model_type == "GradientBoosting":
        return GradientBoostingClassifier(
            n_estimators=params.get("n_estimators", 50),
            max_depth=params.get("max_depth", 3),
            seed=seed,
        )
    if model_type == "DecisionTree":
        return DecisionTreeClassifier(max_depth=params.get("max_depth"), seed=seed)
    if model_type == "KNN":
        return KNeighborsClassifier(n_neighbors=params.get("n_neighbors", 5))
    if model_type == "NaiveBayes":
        return GaussianNB()
    if model_type == "LogisticRegression":
        return LogisticRegression(seed=seed)
    if model_type == "LinearSVC":
        return LinearSVC(seed=seed)
    if model_type == "MLP":
        return MLPClassifier(
            hidden_sizes=tuple(params.get("hidden_sizes", (32, 16))),
            n_epochs=params.get("n_epochs", 60),
            seed=seed,
        )
    if model_type == "AutoML":
        return AutoML(time_budget=params.get("time_budget", 12), seed=seed)
    if model_type == "Ensemble":
        members = [
            ("rf", RandomForestClassifier(n_estimators=15, seed=seed)),
            ("svc", LinearSVC(seed=seed)),
            ("dt", DecisionTreeClassifier(seed=seed)),
            ("knn", KNeighborsClassifier()),
        ]
        return VotingClassifier(members, voting=params.get("voting", "hard"))
    quantile = params.get("quantile", 0.98)
    if model_type == "IsolationForest":
        return AnomalyThresholdClassifier(
            IsolationForest(
                n_estimators=params.get("n_estimators", 50),
                contamination=params.get("contamination", 0.02),
                seed=seed,
            ),
            quantile,
        )
    if model_type == "OCSVM":
        return AnomalyThresholdClassifier(
            KernelOCSVM(nu=params.get("nu", 0.05), seed=seed), quantile
        )
    if model_type == "LinearOCSVM":
        return AnomalyThresholdClassifier(
            LinearOCSVM(nu=params.get("nu", 0.05), seed=seed), quantile
        )
    if model_type == "GMM":
        return AnomalyThresholdClassifier(
            GMMAnomalyDetector(
                n_components=params.get("n_components", 4), seed=seed
            ),
            quantile,
        )
    if model_type == "NystromGMM":
        detector = TransformedClassifier(
            [Nystroem(n_components=params.get("nystrom_components", 64), seed=seed)],
            GMMAnomalyDetector(n_components=params.get("n_components", 4), seed=seed),
        )
        return AnomalyThresholdClassifier(detector, quantile)
    if model_type == "NystromOCSVM":
        detector = TransformedClassifier(
            [Nystroem(n_components=params.get("nystrom_components", 64), seed=seed)],
            LinearOCSVM(nu=params.get("nu", 0.05), standardize=False, seed=seed),
        )
        return AnomalyThresholdClassifier(detector, quantile)
    if model_type == "Autoencoder":
        return AnomalyThresholdClassifier(
            Autoencoder(n_epochs=params.get("n_epochs", 60), seed=seed), quantile
        )
    if model_type == "KitNET":
        return AnomalyThresholdClassifier(
            KitNET(
                max_group_size=params.get("max_group_size", 10),
                n_epochs=params.get("n_epochs", 30),
                seed=seed,
            ),
            quantile,
        )
    raise TemplateError(f"unknown model type: {model_type!r}")


#: model types accepted by the "model" operation
MODEL_TYPES = (
    "RandomForest", "DecisionTree", "GradientBoosting", "KNN",
    "NaiveBayes", "LogisticRegression", "LinearSVC", "MLP", "AutoML",
    "Ensemble", "OCSVM", "LinearOCSVM", "GMM", "NystromGMM",
    "NystromOCSVM", "Autoencoder", "KitNET", "IsolationForest",
)


@register_operation(
    "model",
    (),
    ValueType.MODEL,
    required_params=("model_type",),
    optional_params={"params": {}},
    description=f"Instantiate an (unfitted) model; types: {MODEL_TYPES}",
)
def _model(inputs: list, params: dict) -> object:
    return _model_factory(params["model_type"], dict(params["params"]))


@register_operation(
    "WithScaler",
    (ValueType.MODEL,),
    ValueType.MODEL,
    optional_params={"method": "standard"},
    description="Wrap a model so a scaler is fit on its training split "
    "and replayed at prediction time (leakage-free normalisation).",
)
def _with_scaler(inputs: list, params: dict) -> object:
    scaler = (
        StandardScaler() if params["method"] == "standard" else MinMaxScaler()
    )
    return TransformedClassifier([scaler], inputs[0])


@register_operation(
    "WithDecorrelation",
    (ValueType.MODEL,),
    ValueType.MODEL,
    optional_params={"threshold": 0.95},
    description="Wrap a model with train-fitted correlated-feature "
    "removal.",
)
def _with_decorrelation(inputs: list, params: dict) -> object:
    return TransformedClassifier(
        [CorrelatedFeatureRemover(threshold=params["threshold"])], inputs[0]
    )


@register_operation(
    "WithVarianceFilter",
    (ValueType.MODEL,),
    ValueType.MODEL,
    optional_params={"threshold": 0.0},
    description="Wrap a model with train-fitted zero/low-variance "
    "feature removal.",
)
def _with_variance_filter(inputs: list, params: dict) -> object:
    return TransformedClassifier(
        [VarianceThreshold(threshold=params["threshold"])], inputs[0]
    )


@register_operation(
    "WithPCA",
    (ValueType.MODEL,),
    ValueType.MODEL,
    optional_params={"n_components": 8},
    description="Wrap a model with a train-fitted PCA projection.",
)
def _with_pca(inputs: list, params: dict) -> object:
    return TransformedClassifier(
        [PCA(n_components=params["n_components"])], inputs[0]
    )


@register_operation(
    "train",
    (ValueType.MODEL, ValueType.FEATURES, ValueType.LABELS),
    ValueType.MODEL,
    description="Fit a clone of the model on (features, labels).",
)
def _train(inputs: list, params: dict) -> object:
    model, features, labels = inputs
    fitted = clone(model)
    fitted.fit(features, labels)
    return fitted


@register_operation(
    "predict",
    (ValueType.MODEL, ValueType.FEATURES),
    ValueType.PREDICTIONS,
    description="Predict labels for a feature matrix.",
)
def _predict(inputs: list, params: dict) -> np.ndarray:
    model, features = inputs
    return np.asarray(model.predict(features))


@register_operation(
    "evaluate",
    (ValueType.PREDICTIONS, ValueType.LABELS),
    ValueType.METRICS,
    description="Precision/recall/F1/accuracy of predictions vs labels.",
)
def _evaluate(inputs: list, params: dict) -> dict[str, float]:
    predictions, labels = inputs
    return classification_summary(labels, predictions)


@register_operation(
    "AttackIds",
    (ValueType.ANY,),
    ValueType.LABELS,
    description="Per-unit attack ids (-1 = benign) of packets or flows; "
    "drives the per-attack precision analysis (Figure 5).",
)
def _attack_ids(inputs: list, params: dict) -> np.ndarray:
    source = inputs[0]
    if isinstance(source, PacketTable):
        return source.attack_id.astype(np.int64)
    if isinstance(source, FlowTable):
        return source.attack_ids.astype(np.int64)
    raise TemplateError("AttackIds expects packets or flows")


@register_operation(
    "tune",
    (ValueType.MODEL, ValueType.FEATURES, ValueType.LABELS),
    ValueType.MODEL,
    required_params=("param_grid",),
    optional_params={"n_splits": 3, "seed": 0},
    description="Cross-validated grid search over the model's "
    "hyperparameters (the Section 6 tuning integration); returns the "
    "refitted best model.",
)
def _tune(inputs: list, params: dict) -> object:
    from repro.ml.model_selection import GridSearch

    model, features, labels = inputs
    search = GridSearch(
        model,
        {name: list(values) for name, values in params["param_grid"].items()},
        n_splits=params["n_splits"],
        seed=params["seed"],
    )
    search.fit(features, labels)
    return search.best_estimator_


@register_operation(
    "DeviceLabels",
    (ValueType.ANY,),
    ValueType.LABELS,
    required_params=("device_map",),
    description="Multi-class labels for device classification (the "
    "Section 6 extension): maps each packet's/flow's source IP to a "
    "device-class id via `device_map` {src_ip: class_id}; unknown "
    "sources get class -1.",
)
def _device_labels(inputs: list, params: dict) -> np.ndarray:
    # one searchsorted against the sorted key set labels every row
    source = inputs[0]
    mapping = {int(k): int(v) for k, v in params["device_map"].items()}
    if isinstance(source, PacketTable):
        ips = source.src_ip
    elif isinstance(source, FlowTable):
        ips = source.key_columns["src_ip"]
    else:
        raise TemplateError("DeviceLabels expects packets or flows")
    out = np.full(len(ips), -1, dtype=np.int64)
    if mapping:
        keys = np.array(sorted(mapping), dtype=np.int64)
        values = np.array([mapping[k] for k in sorted(mapping)], dtype=np.int64)
        ips64 = ips.astype(np.int64)
        pos = np.minimum(np.searchsorted(keys, ips64), len(keys) - 1)
        hit = keys[pos] == ips64
        out[hit] = values[pos[hit]]
    return out


@register_operation(
    "PropagateLabels",
    (ValueType.FLOWS,),
    ValueType.LABELS,
    description="Per-PACKET labels derived from flow labels (coarse "
    "labels propagate down to fine units -- the faithful direction of "
    "Section 2.1). Output is aligned with the flow table's source "
    "packet order.",
)
def _propagate_labels(inputs: list, params: dict) -> np.ndarray:
    from repro.core.segments import flow_membership
    from repro.flows.granularity import propagate_labels

    flows: FlowTable = inputs[0]
    membership_grouped = flow_membership(flows.starts, flows.counts)
    # map back from flow-grouped order to the source packet order
    packet_membership = np.full(len(flows.packets), -1, dtype=np.int64)
    packet_membership[flows.order] = membership_grouped
    return propagate_labels(
        flows.labels.astype(np.int64), packet_membership
    )
