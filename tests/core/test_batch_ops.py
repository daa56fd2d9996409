"""The numpy operation bodies against their scalar oracles.

``ProtocolOneHot``, ``WlanFeatures``, ``FirstNPackets`` and
``DeviceLabels`` each have one body: a columnar numpy implementation.
The column-at-a-time and per-flow bodies they replaced live in
``tests.core.featurize_oracle``; on every registry dataset, at every
flow granularity and across the parameter space, each body must give
the oracle's output byte for byte (same dtype, same shape, same
``tobytes()``), and so must the engine that runs it.
"""

import itertools

import numpy as np
import pytest

from repro.analysis.vectorize import (
    BATCHABLE_VERDICTS,
    operation_vector_report,
)
from repro.core import ExecutionEngine, Pipeline
from repro.core.operations import OPERATIONS, register_stream
from repro.datasets import DATASETS, load_dataset, load_flows
from repro.flows import Granularity, assemble_connections
from repro.net.table import PacketTable
from tests.core import featurize_oracle as oracle

ORACLES = {
    "DeviceLabels": oracle.device_labels,
    "FirstNPackets": oracle.first_n_packets,
    "ProtocolOneHot": oracle.protocol_one_hot,
    "WlanFeatures": oracle.wlan_features,
}

DATASET_IDS = sorted(DATASETS)
FLOW_GRANULARITIES = [g for g in Granularity if g.is_flow_like]
FIRST_N_PARAMS = [
    {"n": n, "include_iat": iat, "include_direction": direction}
    for n, iat, direction in itertools.product(
        (1, 2, 8, 50), (False, True), (False, True)
    )
]


def _assert_matches_oracle(name, inputs, params, case):
    operation = OPERATIONS[name]
    params = operation.validate_params(params)
    expected = ORACLES[name](inputs, params)
    actual = operation.fn(inputs, params)
    assert actual.dtype == expected.dtype, case
    assert actual.shape == expected.shape, case
    assert actual.tobytes() == expected.tobytes(), case


def _device_maps(ips):
    """Empty, partial, every-source and unmatched-key device maps."""
    unique = np.unique(ips)
    unmatched = int(unique.max()) + 1 if len(unique) else 7
    every = {str(int(ip)): i % 5 for i, ip in enumerate(unique)}
    partial = dict(list(every.items())[::3])
    return {
        "empty": {},
        "partial": partial,
        "every": every,
        "unmatched": {**partial, str(unmatched): 9},
    }


def _every_wlan_type() -> PacketTable:
    """802.11 rows of every type and subtype byte value, plus two wired
    rows: the registry traces carry no reserved type 3, which the
    one-hot guards must drop."""
    types, subtypes = np.meshgrid(np.arange(256), np.arange(256))
    table = PacketTable.empty(types.size + 2)
    columns = table.columns
    columns["l2"][:-2] = 105
    columns["wlan_type"][:-2] = types.ravel()
    columns["wlan_subtype"][:-2] = subtypes.ravel()
    columns["dst_mac"][::2] = 0xFFFFFFFFFFFF
    columns["length"][:] = np.arange(len(table)) % 1500
    return table


class TestByteEquality:
    def test_protocol_one_hot(self, small_trace):
        _assert_matches_oracle("ProtocolOneHot", [small_trace], {}, "small")
        for dataset in DATASET_IDS:
            _assert_matches_oracle(
                "ProtocolOneHot", [load_dataset(dataset)], {}, dataset
            )

    def test_wlan_features(self, small_trace):
        _assert_matches_oracle("WlanFeatures", [small_trace], {}, "small")
        _assert_matches_oracle(
            "WlanFeatures", [_every_wlan_type()], {}, "every type/subtype"
        )
        for dataset in DATASET_IDS:
            _assert_matches_oracle(
                "WlanFeatures", [load_dataset(dataset)], {}, dataset
            )

    def test_device_labels(self, small_trace):
        sources = [("small", small_trace, small_trace.src_ip)]
        for dataset in DATASET_IDS:
            table = load_dataset(dataset)
            sources.append((dataset, table, table.src_ip))
            for granularity in FLOW_GRANULARITIES:
                flows = load_flows(dataset, granularity)
                sources.append((
                    f"{dataset}/{granularity.name}", flows,
                    flows.key_columns["src_ip"],
                ))
        for label, source, ips in sources:
            for kind, device_map in _device_maps(ips).items():
                _assert_matches_oracle(
                    "DeviceLabels", [source], {"device_map": device_map},
                    (label, kind),
                )

    def test_first_n_packets(self, small_trace):
        cases = [("small", assemble_connections(small_trace))]
        cases += [
            (f"{dataset}/{granularity.name}",
             load_flows(dataset, granularity))
            for dataset in DATASET_IDS
            for granularity in FLOW_GRANULARITIES
        ]
        for label, flows in cases:
            for params in FIRST_N_PARAMS:
                _assert_matches_oracle(
                    "FirstNPackets", [flows], params, (label, params)
                )

    def test_every_converted_op_is_analyzer_approved(self):
        # one numpy body per operation: the analyzer proves its rows
        # independent and finds no Python row loop (L037) in it
        for name in ORACLES:
            report = operation_vector_report(OPERATIONS[name])
            assert report.verdict in BATCHABLE_VERDICTS, name
            assert report.diagnostics == (), name


class TestRegisterStream:
    def test_unknown_operation_rejected(self):
        with pytest.raises(ValueError, match="not registered"):
            register_stream("NoSuchOperation")(lambda i, p, s: None)

    def test_duplicate_stream_rejected(self):
        with pytest.raises(ValueError, match="already has"):
            register_stream("KitsuneFeatures")(lambda i, p, s: None)


TEMPLATE = [
    {"func": "ProtocolOneHot", "input": None, "output": "X"},
    {"func": "WlanFeatures", "input": None, "output": "W"},
]


class TestEngineGating:
    def test_vectorized_matches_scalar(self, small_trace):
        # the engine runs each operation's one body: its outputs equal
        # the scalar oracles byte for byte
        outputs = ExecutionEngine(use_cache=False, track_memory=False).run(
            Pipeline.from_template(TEMPLATE), small_trace,
            outputs=[step["output"] for step in TEMPLATE],
        )
        for step in TEMPLATE:
            expected = ORACLES[step["func"]]([small_trace], {})
            assert expected.tobytes() == outputs[step["output"]].tobytes()
