"""Definitions of algorithms A00-A15 (the paper's Table 2).

Every algorithm is a pair of Lumen template fragments.  Packet-level
algorithms start with a deterministic ``Downsample`` so the per-packet
models train in bounded time -- the paper hits the same wall ("nprint
fails with large pcap files") and solves it with Ray-scale parallelism;
at benchmark scale a seeded subsample preserves the comparison while
keeping the full matrix runnable on a laptop.

Where a paper leaves hyperparameters unspecified we use our defaults,
exactly as the paper does ("for those algorithms in which the
hyperparameters were not specified, we use default parameters").
"""

from __future__ import annotations

from repro.algorithms.base import AlgorithmSpec
from repro.core.errors import UnknownIdError
from repro.flows import Granularity

#: deterministic cap applied to packet-granularity algorithms
PACKET_SAMPLE = 3000

_DOWNSAMPLE = {
    "func": "Downsample", "input": None, "output": "pkts",
    "max_packets": PACKET_SAMPLE, "seed": 0,
}


def _packet_labels() -> dict:
    return {"func": "Labels", "input": ["pkts"], "output": "y"}


def _model(model_type: str, params: dict | None = None) -> list[dict]:
    step = {"func": "model", "model_type": model_type, "input": None,
            "output": "clf"}
    if params:
        step["params"] = params
    return [step]


def _scaled_model(model_type: str, params: dict | None = None) -> list[dict]:
    step = {"func": "model", "model_type": model_type, "input": None,
            "output": "base_clf"}
    if params:
        step["params"] = params
    return [
        step,
        {"func": "WithScaler", "input": ["base_clf"], "output": "clf"},
    ]


def _nprint(algorithm_id: str, name: str, layers: list[str]) -> AlgorithmSpec:
    return AlgorithmSpec(
        algorithm_id=algorithm_id,
        name=name,
        paper="nPrint: Holland et al., CCS'21 [20]",
        granularity=Granularity.PACKET,
        feature_template=(
            _DOWNSAMPLE,
            {"func": "NprintEncode", "input": ["pkts"], "output": "X",
             "layers": layers},
            _packet_labels(),
        ),
        model_template=tuple(_model("AutoML", {"time_budget": 6})),
        notes="unified packet-bit representation + AutoML",
    )


ALGORITHMS: dict[str, AlgorithmSpec] = {
    spec.algorithm_id: spec
    for spec in [
        AlgorithmSpec(
            algorithm_id="A00",
            name="ML DDoS",
            paper="Doshi et al., SPW'18 [18]",
            granularity=Granularity.PACKET,
            feature_template=(
                _DOWNSAMPLE,
                {"func": "PacketFields", "input": ["pkts"], "output": "raw",
                 "fields": ["length", "ttl", "src_port", "dst_port",
                            "payload_len"]},
                {"func": "ProtocolOneHot", "input": ["pkts"],
                 "output": "proto"},
                {"func": "KitsuneFeatures", "input": ["pkts"],
                 "output": "ctx", "lambdas": [0.1]},
                {"func": "ConcatFeatures", "input": ["raw", "proto"],
                 "output": "rp"},
                {"func": "ConcatFeatures", "input": ["rp", "ctx"],
                 "output": "X"},
                _packet_labels(),
            ),
            model_template=tuple(_scaled_model("Ensemble")),
            notes="stateless + stateful per-packet features, 4-model vote",
        ),
        _nprint("A01", "nprint1: All", ["ipv4", "tcp", "udp", "icmp", "payload"]),
        _nprint("A02", "nprint2: tcp + udp + ipv4", ["ipv4", "tcp", "udp"]),
        _nprint("A03", "nprint3: tcp + udp + ipv4 + payload",
                ["ipv4", "tcp", "udp", "payload"]),
        _nprint("A04", "nprint4: tcp + icmp + ipv4", ["ipv4", "tcp", "icmp"]),
        AlgorithmSpec(
            algorithm_id="A05",
            name="IDS smart home",
            paper="Anthi et al., IoT-J'19 [11]",
            granularity=Granularity.PACKET,
            feature_template=(
                _DOWNSAMPLE,
                {"func": "PacketFields", "input": ["pkts"], "output": "raw",
                 "fields": ["length", "ttl", "src_port", "dst_port",
                            "tcp_flags", "window", "payload_len"]},
                {"func": "ProtocolOneHot", "input": ["pkts"],
                 "output": "proto"},
                {"func": "WlanFeatures", "input": ["pkts"], "output": "wlan"},
                {"func": "ConcatFeatures", "input": ["raw", "proto"],
                 "output": "rp"},
                {"func": "ConcatFeatures", "input": ["rp", "wlan"],
                 "output": "X"},
                _packet_labels(),
            ),
            model_template=tuple(_model("RandomForest")),
            notes="PDML-style per-packet field vector + random forest",
        ),
        AlgorithmSpec(
            algorithm_id="A06",
            name="Kitsune",
            paper="Mirsky et al., NDSS'18 [27]",
            granularity=Granularity.PACKET,
            feature_template=(
                _DOWNSAMPLE,
                {"func": "KitsuneFeatures", "input": ["pkts"], "output": "X",
                 "lambdas": [1.0, 0.1, 0.01]},
                _packet_labels(),
            ),
            model_template=tuple(
                _model("KitNET", {"max_group_size": 10, "n_epochs": 25, "quantile": 0.9})
            ),
            notes="damped incremental stats + autoencoder ensemble; "
            "works on 802.11 traffic because its groupings fall back "
            "to MAC endpoints",
        ),
        AlgorithmSpec(
            algorithm_id="A07",
            name="OCSVM",
            paper="Yang et al. [40]",
            granularity=Granularity.CONNECTION,
            feature_template=(
                {"func": "Groupby", "input": None, "output": "flows",
                 "flowid": ["connection"]},
                {"func": "FirstNPackets", "input": ["flows"], "output": "X",
                 "n": 8, "include_direction": False},
                {"func": "Labels", "input": ["flows"], "output": "y"},
            ),
            model_template=tuple(
                _model("OCSVM", {"nu": 0.05, "quantile": 0.95})
            ),
            notes="first-N packet sizes + inter-arrivals, kernel OCSVM",
        ),
        AlgorithmSpec(
            algorithm_id="A08",
            name="Nystrom + GMM",
            paper="Yang et al. [40]",
            granularity=Granularity.CONNECTION,
            feature_template=(
                {"func": "Groupby", "input": None, "output": "flows",
                 "flowid": ["connection"]},
                {"func": "FirstNPackets", "input": ["flows"], "output": "X",
                 "n": 8, "include_direction": False},
                {"func": "Labels", "input": ["flows"], "output": "y"},
            ),
            model_template=tuple(
                _model("NystromGMM", {"n_components": 4, "quantile": 0.95})
            ),
            notes="Nystrom kernel features + GMM density threshold",
        ),
        AlgorithmSpec(
            algorithm_id="A09",
            name="Nystrom + OCSVM",
            paper="Yang et al. [40]",
            granularity=Granularity.CONNECTION,
            feature_template=(
                {"func": "Groupby", "input": None, "output": "flows",
                 "flowid": ["connection"]},
                {"func": "FirstNPackets", "input": ["flows"], "output": "X",
                 "n": 8, "include_direction": False},
                {"func": "Labels", "input": ["flows"], "output": "y"},
            ),
            model_template=tuple(_model("NystromOCSVM", {"nu": 0.05, "quantile": 0.95})),
            notes="Nystrom kernel features + linear one-class SVM",
        ),
        AlgorithmSpec(
            algorithm_id="A10",
            name="smartdet",
            paper="de Lima Filho et al. [24]",
            granularity=Granularity.UNI_FLOW,
            feature_template=(
                {"func": "Groupby", "input": None, "output": "uni",
                 "flowid": ["5tuple"]},
                {"func": "TimeSlice", "input": ["uni"], "output": "flows",
                 "window": 5.0},
                {"func": "ApplyAggregates", "input": ["flows"], "output": "X",
                 "list": ["count", "pps", "mean:length", "std:length",
                          "entropy:src_port", "entropy:dst_port",
                          "flag_rate:SYN", "flag_rate:ACK", "flag_rate:RST",
                          "nunique:dst_ip"]},
                {"func": "Labels", "input": ["flows"], "output": "y"},
            ),
            model_template=tuple(_model("RandomForest")),
            notes="windowed flag rates, port entropy, size deviation",
        ),
        AlgorithmSpec(
            algorithm_id="A11",
            name="nokia",
            paper="Bhatia et al., CoNEXT-W'19 [15]",
            granularity=Granularity.CONNECTION,
            feature_template=(
                {"func": "Groupby", "input": None, "output": "pairs",
                 "flowid": ["srcIp", "dstIp"], "window": 30.0},
                {"func": "PairVolumes", "input": ["pairs"], "output": "X"},
                {"func": "Labels", "input": ["pairs"], "output": "y"},
            ),
            model_template=tuple(
                _model("Autoencoder", {"n_epochs": 50, "quantile": 0.97})
            ),
            notes="classifies (srcIP,dstIP) windows; evaluated on "
            "connection datasets as in the paper, with pair labels "
            "derived from the packet-level ground truth",
        ),
        AlgorithmSpec(
            algorithm_id="A12",
            name="early detection",
            paper="Hwang et al., IEEE Access'20 [21]",
            granularity=Granularity.CONNECTION,
            feature_template=(
                {"func": "Groupby", "input": None, "output": "flows",
                 "flowid": ["connection"]},
                {"func": "FirstNPackets", "input": ["flows"], "output": "X",
                 "n": 4},
                {"func": "Labels", "input": ["flows"], "output": "y"},
            ),
            model_template=tuple(
                _scaled_model("MLP", {"hidden_sizes": [24, 12],
                                      "n_epochs": 60})
            ),
            notes="first packets only (early), sequence model stand-in",
        ),
        AlgorithmSpec(
            algorithm_id="A13",
            name="Bayesian",
            paper="Moore & Zuev, SIGMETRICS'05 [28]",
            granularity=Granularity.CONNECTION,
            feature_template=(
                {"func": "Groupby", "input": None, "output": "flows",
                 "flowid": ["connection"]},
                {"func": "FlowDiscriminators", "input": ["flows"],
                 "output": "X"},
                {"func": "Labels", "input": ["flows"], "output": "y"},
            ),
            model_template=tuple(_model("NaiveBayes")),
            notes="per-flow discriminator battery + naive Bayes",
        ),
        AlgorithmSpec(
            algorithm_id="A14",
            name="Zeek",
            paper="Austin, WVU'21 [13]",
            granularity=Granularity.CONNECTION,
            feature_template=(
                {"func": "Groupby", "input": None, "output": "flows",
                 "flowid": ["connection"]},
                {"func": "ZeekConnLog", "input": ["flows"], "output": "X"},
                {"func": "Labels", "input": ["flows"], "output": "y"},
            ),
            model_template=tuple(_model("RandomForest")),
            notes="conn.log record fields + random forest",
        ),
        AlgorithmSpec(
            algorithm_id="A15",
            name="IIoT",
            paper="Zolanvari et al., IoT-J'19 [41]",
            granularity=Granularity.CONNECTION,
            feature_template=(
                {"func": "Groupby", "input": None, "output": "flows",
                 "flowid": ["connection"]},
                {"func": "ApplyAggregates", "input": ["flows"], "output": "X",
                 "list": ["count", "duration", "bandwidth", "pps",
                          "mean:length", "std:length", "sum:payload_len",
                          "iat_mean", "iat_std", "mean:window",
                          "bytes_ratio"]},
                {"func": "Labels", "input": ["flows"], "output": "y"},
            ),
            model_template=tuple(_model("RandomForest")),
            notes="time/length/bandwidth/jitter statistics + RF",
        ),
    ]
}


def algorithm_ids(granularity: Granularity | None = None) -> list[str]:
    """All catalog ids, optionally filtered by granularity family."""
    return [
        spec.algorithm_id
        for spec in ALGORITHMS.values()
        if granularity is None or spec.granularity == granularity
    ]


def build_algorithm(algorithm_id: str) -> AlgorithmSpec:
    """Look up a catalog algorithm by id (including AM* after synthesis
    registration)."""
    if algorithm_id not in ALGORITHMS:
        raise UnknownIdError(
            f"unknown algorithm {algorithm_id!r}; known: {sorted(ALGORITHMS)}"
        )
    return ALGORITHMS[algorithm_id]
