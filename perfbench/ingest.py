"""Workload ``ingest``: the bytes-in path, with no ML.

Each pass imports every capture with ``import_dataset`` and assembles
its flows at UNI_FLOW, CONNECTION and PAIR.  The captures are F0, P0 and
P2, each exported whole as one file; throughput is packets per
calibrated second of the median pass, the checks left out.

Why this workload: it is the only one where ``net`` does most of the
work and ``ml`` none.  F0 is IPv4 TCP/UDP, P0 adds ARP and P2 is 802.11
without IP, so a decoder fast path that mishandles irregular frames
fails the checks here.  Export (writes) is set-up; import (reads) is
measured.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from common import (
    HostSpeed,
    Outcome,
    Traced,
    digest,
    keep_measuring,
    seeded_scenario,
    span_fn,
    span_seconds,
    traced_passes,
)
from repro.datasets.export import export_dataset, import_dataset
from repro.flows import Granularity, assemble_flows
from repro.net.packet import LinkType
from repro.net.pcap import read_pcap
from repro.net.table import PACKET_COLUMNS, PacketTable

DATASETS = ("F0", "P0", "P2")
GRANULARITIES = (Granularity.UNI_FLOW, Granularity.CONNECTION, Granularity.PAIR)


@dataclass
class Capture:
    """One exported capture file and the in-memory table it came from."""

    name: str
    pcap: Path
    labels: Path
    reference: PacketTable
    flow_counts: tuple[int, ...] | None = None


def setup(seed: int, work: Path, tracer=None, *, datasets=DATASETS) -> list[Capture]:
    """Generate each dataset and export it whole as one capture file."""
    span = span_fn(tracer)
    captures = []
    for dataset_id in datasets:
        with span("traffic.generate", dataset=dataset_id):
            table = seeded_scenario(dataset_id, seed).generate()
        with span("datasets.export", file=dataset_id):
            pcap, labels = export_dataset(table, work, dataset_id)
        captures.append(Capture(dataset_id, pcap, labels, table))
    return captures


def _ingest(capture: Capture):
    table = import_dataset(capture.pcap, capture.labels)
    return table, [assemble_flows(table, g) for g in GRANULARITIES]


def _attack_names(table: PacketTable) -> np.ndarray:
    names = np.array(list(table.attacks) + [""], dtype=object)
    return names[table.columns["attack_id"]]  # -1 picks the trailing ""


def _arp_rows(table: PacketTable) -> np.ndarray:
    cols = table.columns
    return (
        (cols["l2"] == int(LinkType.ETHERNET))
        & (cols["l3"] == 0)
        & ((cols["src_ip"] != 0) | (cols["dst_ip"] != 0))
    )


def check_capture(capture: Capture, table: PacketTable, flows) -> tuple[list[str], int]:
    """Problems with one imported capture, and its known ttl mismatches.

    The imported table must equal the generated one column for column
    (``ts`` within 1 us, attacks by name) and its flow counts those
    assembled in memory.  ARP rows decode with ``ttl`` 0 where the
    generator sets a value; those rows are counted, not failed.
    """
    ref = capture.reference
    if len(table) != len(ref):
        return [f"{capture.name}: {len(table)} rows, expected {len(ref)}"], 0
    problems = []
    for column in PACKET_COLUMNS:
        mine, theirs = table.columns[column], ref.columns[column]
        if column == "ts":
            bad = np.abs(mine - theirs) > 1e-6
        elif column == "attack_id":
            bad = _attack_names(table) != _attack_names(ref)
        else:
            bad = mine != theirs
        if column == "ttl":
            known = bad & _arp_rows(ref)
            bad = bad & ~known
        if bad.any():
            problems.append(f"{capture.name}: column {column} differs in {int(bad.sum())} rows")
    counts = tuple(len(f) for f in flows)
    if counts != capture.flow_counts:
        problems.append(f"{capture.name}: flow counts {counts}, expected {capture.flow_counts}")
    ttl_known = int(((table.columns["ttl"] != ref.columns["ttl"]) & _arp_rows(ref)).sum())
    return problems, ttl_known


def _capture_digest(table: PacketTable, flows) -> str:
    return digest(*(table.columns[c] for c in PACKET_COLUMNS), table.attacks,
                  [len(f) for f in flows])


def measure(captures: list[Capture], seconds: float, speed: HostSpeed) -> Outcome:
    out = Outcome(work=sum(len(c.reference) for c in captures))
    for capture in captures:  # the in-memory reference, outside timing
        if capture.flow_counts is None:
            capture.flow_counts = tuple(
                len(assemble_flows(capture.reference, g)) for g in GRANULARITIES
            )
    ttl_known = 0
    first_tables = {}
    started = time.perf_counter()
    while keep_measuring(started, seconds, out):
        intervals = []
        for capture in captures:
            t0 = time.monotonic()
            table, flows = _ingest(capture)
            intervals.append((t0, time.monotonic()))
            out.attempted += 1
            problems, ttl = check_capture(capture, table, flows)
            file_digest = _capture_digest(table, flows)
            if capture.name not in out.digests:
                out.digests[capture.name] = file_digest
                first_tables[capture.name] = table
                ttl_known += ttl
            elif file_digest != out.digests[capture.name]:
                problems.append(f"{capture.name}: output changed between passes")
            if problems:
                out.failed += 1
                out.problems.extend(problems)
        out.add_pass(speed, intervals)
    out.extra = {
        "ingest.files": (len(captures), "count"),
        "ingest.packets": (out.work, "count"),
        "ingest.known_ttl_mismatch_rows": (ttl_known, "count"),
    }
    out.detail["tables"] = first_tables
    return out


def _join_labels(packets, labels_path: Path) -> None:
    """The label-CSV join of ``import_dataset``, as its own timed step."""
    with open(labels_path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    if len(rows) != len(packets):
        raise ValueError(f"{labels_path}: {len(rows)} labels for {len(packets)} packets")
    for packet, row in zip(packets, rows):
        packet.label = int(row["label"])
        packet.attack = row["attack"]


def traced_pass(captures: list[Capture], tracer, outcome: Outcome) -> Traced:
    """``import_dataset`` split at its layer boundaries, then assembly.

    The split mirrors ``import_dataset`` (``read_pcap``, the label join,
    ``PacketTable.from_packets``); each table must equal the one
    ``import_dataset`` returned in the untraced passes.
    """
    def once(tracer):
        span = span_fn(tracer)
        tables = []
        for capture in captures:
            with span("net.read_pcap", file=capture.name):
                packets = read_pcap(capture.pcap)
            with span("datasets.label_join", file=capture.name):
                _join_labels(packets, capture.labels)
            with span("net.from_packets", file=capture.name):
                table = PacketTable.from_packets(packets)
            for g in GRANULARITIES:
                with span(f"flows.assemble_{g.name.lower()}", file=capture.name):
                    assemble_flows(table, g)
            tables.append(table)
        return tables

    passes, result = traced_passes(tracer, "ingest", once)
    for tables in passes:
        for capture, table in zip(captures, tables):
            result.attempted += 1
            expected = outcome.detail["tables"][capture.name]
            if not (table.equals(expected) and np.array_equal(table.ts, expected.ts)):
                result.failed += 1
                result.problems.append(f"{capture.name}: split import differs from import_dataset")
    tables = passes[0]
    packets = sum(len(t) for t in tables)
    result.metrics = {
        "net.packets": packets,
        "net.bytes": sum(c.pcap.stat().st_size for c in captures),
        "net.non_ipv4_share": sum(int((t.columns["l3"] != 4).sum()) for t in tables) / packets,
    }
    return result


def layer_metrics(events: list[dict], traced: Traced, outcome: Outcome) -> dict[str, float]:
    decode = sum(span_seconds(events, "net.read_pcap"))
    metrics = {
        "net.decode_s": decode,
        "net.decode_pkts_per_s": traced.metrics["net.packets"] / decode,
        "net.table_build_s": sum(span_seconds(events, "net.from_packets")),
        "datasets.label_join_s": sum(span_seconds(events, "datasets.label_join")),
        "traffic.generate_s": sum(span_seconds(events, "traffic.generate")),
        "datasets.export_s": sum(span_seconds(events, "datasets.export")),
    }
    for g in GRANULARITIES:
        name = f"flows.assemble_{g.name.lower()}"
        metrics[f"{name}_s"] = sum(span_seconds(events, name))
    return metrics
