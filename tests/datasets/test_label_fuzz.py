"""Differential fuzzing of the label-CSV join of ``import_dataset``.

``_join_labels`` splits a label file with numpy where it can
(``_bulk_labels``) and hands every other file to ``csv.reader``
(``_csv_labels``), the oracle.  On every input both paths must fill the
same ``label`` and ``attack_id`` bytes and the same ``attacks``, or both
must raise ``InputError`` with the same message.

The fuzzer is seeded.  It mutates the first rows of the F0, P0 and P2
label files and hand-built ones: line endings (LF, CRLF, lone CR, mixed),
blank lines, short and extra rows and fields, label texts, quoted and
non-ASCII attack names, headers, NUL and non-UTF-8 bytes, cut files.
The short budget runs with the tier-1 suite; ``-m pcap_fuzz_long``
selects a longer one.
"""

import csv
import io
import random

import pytest

from repro.core import InputError
from repro.datasets import export, load_dataset
from repro.datasets.export import export_dataset
from repro.net.table import PacketTable


def outcome(path, rows: int):
    """What ``_join_labels`` fills into a table of ``rows`` rows, or the
    message it raises."""
    table = PacketTable.empty(rows)
    try:
        export._join_labels(table, path)
    except InputError as exc:
        return str(exc)
    return table.label.tobytes(), table.attack_id.tobytes(), table.attacks


def assert_paths_agree(path, rows: int) -> bool:
    """The bulk path and ``csv.reader`` agree on ``path``; return
    whether the bulk path accepted it."""
    got = outcome(path, rows)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(export, "_bulk_labels", lambda data, rows: None)
        want = outcome(path, rows)
    assert got == want
    return export._bulk_labels(path.read_bytes(), rows) is not None


def quoted(name: str) -> str:
    """``name`` as ``csv.writer`` writes it in a row."""
    buffer = io.StringIO()
    csv.writer(buffer).writerow([name, ""])
    return buffer.getvalue()[:-3]


HEADER = "index,timestamp,label,attack"
LABELS = [
    "0", "1", "2", "255", " 1", "+1", "01", "256", "x", "", "-0", "-1",
    "1 ", "1_0", "0x1", "٣", "1.0", "1\0",
]
NAMES = [
    "", "port_scan", "mirai", "café", "弱", "scan;fast", " padded ",
    quoted('scan, "fast"'), quoted("multi\nline"), quoted("plain"),
    'bad"quote', "x\0y", "scan\0",
]
ENDINGS = ["\n", "\r\n", "\r"]


def hand_built(rng: random.Random) -> tuple[list[str], int]:
    """Lines of a label file (header first) and its row count."""
    header = rng.choice([HEADER, "label,attack", "attack,index,label", "label,attack,label"])
    columns = header.split(",")
    names = ["port_scan", "mirai", "café", "dns_tunnel", ""]
    lines = [header]
    for i in range(rng.randint(0, 40)):
        fields = {"index": str(i), "timestamp": f"{1000 + i / 7:.6f}"}
        fields["label"] = rng.choice(["0", "0", "1", "2"])
        fields["attack"] = rng.choice(names) if fields["label"] != "0" else rng.choice(["", "", "decoy"])
        lines.append(",".join(fields[c] for c in columns))
    return lines, len(lines) - 1


def lines_of(data: bytes, rows: int) -> list[str]:
    """The header and ``rows`` data rows of an exported label file:
    benign rows and malicious ones, in file order."""
    lines = data.decode().splitlines()
    malicious = [i for i in range(1, len(lines)) if lines[i].split(",")[2] != "0"]
    picked = sorted(set(range(1, rows // 2 + 1)) | set(malicious[: rows // 2]))
    return [lines[0]] + [lines[i] for i in picked]


def mutate(lines: list[str], rows: int, rng: random.Random) -> tuple[str, bytes, int]:
    """One mutation of a label file, its name, its bytes and the row
    count the capture claims."""
    lines = list(lines)
    kind = rng.choice(
        ["none", "endings", "blank", "short", "extra", "label", "attack",
         "header", "rows", "bytes", "cut"]
    )
    body = range(1, len(lines))
    if kind == "blank":
        for _ in range(rng.randint(1, 3)):
            lines.insert(rng.randint(0, len(lines)), rng.choice(["", "", ","]))
    elif kind in ("short", "extra", "label", "attack") and body:
        for i in rng.sample(body, rng.randint(1, min(3, len(body)))):
            fields = lines[i].split(",")
            if kind == "short":
                fields = fields[: rng.randrange(len(fields))]
            elif kind == "extra":
                fields += rng.choice([["x"], [""], ["", "y"]])
            else:
                texts = LABELS if kind == "label" else NAMES
                fields[rng.randrange(len(fields))] = rng.choice(texts)
            lines[i] = ",".join(fields)
    elif kind == "header":
        columns = lines[0].split(",")
        column = rng.randrange(len(columns))
        columns[column] = rng.choice(["label", "attack", "verdict", "", "Label", " label"])
        lines[0] = ",".join(columns)
    elif kind == "rows":
        if body and rng.random() < 0.5:
            i = rng.choice(body)
            if rng.random() < 0.5:
                lines.insert(i, lines[i])
            else:
                del lines[i]
        else:
            rows = max(0, rows + rng.choice([-1, 1]))
    if kind == "endings":
        ends = [rng.choice(ENDINGS) for _ in lines]
    else:
        ends = [rng.choice(ENDINGS)] * len(lines)
    if rng.random() < 0.2:
        ends[-1] = ""  # no line end after the last row
    data = "".join(line + end for line, end in zip(lines, ends)).encode()
    if kind == "bytes":
        data = bytearray(data)
        for _ in range(rng.randint(1, 3)):
            at = rng.randint(0, len(data))
            data[at:at] = rng.choice([b"\0", b"\xff", b"\xe2\x82", b"\xc3", b'"', b"\r", b","])
        data = bytes(data)
    elif kind == "cut":
        data = data[: rng.randint(0, len(data))]
    return kind, data, rows


@pytest.fixture(scope="module")
def label_files(tmp_path_factory):
    """The F0, P0 and P2 label files, as ``export_dataset`` writes them."""
    directory = tmp_path_factory.mktemp("labels")
    return {
        dataset_id: export_dataset(load_dataset(dataset_id), directory, dataset_id)[1]
        for dataset_id in ("F0", "P0", "P2")
    }


class TestPathsAgree:
    @pytest.mark.parametrize("dataset_id", ["F0", "P0", "P2"])
    def test_registry_label_file(self, label_files, dataset_id):
        path = label_files[dataset_id]
        assert assert_paths_agree(path, len(load_dataset(dataset_id)))

    @pytest.mark.parametrize("ending", ENDINGS)
    def test_line_endings_and_blank_lines(self, tmp_path, ending):
        path = tmp_path / "labels.csv"
        lines = [HEADER, "", "0,1.0,0,", "1,2.0,1,scan", "", "", "2,3.0,2,café", ""]
        path.write_bytes(ending.join(lines).encode())
        assert assert_paths_agree(path, 3)
        table = PacketTable.empty(3)
        export._join_labels(table, path)
        assert table.label.tolist() == [0, 1, 2]
        assert table.attack_id.tolist() == [-1, 0, 1]
        assert table.attacks == ["scan", "café"]

    def test_quoted_names_go_to_csv_reader(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text(f'{HEADER}\r\n0,1.0,1,{quoted("a, b")}\r\n', encoding="utf-8")
        assert not assert_paths_agree(path, 1)
        assert outcome(path, 1)[2] == ["a, b"]

    def test_header_only(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_bytes(HEADER.encode())
        assert assert_paths_agree(path, 0)
        path.write_bytes(b"")
        assert not assert_paths_agree(path, 0)


@pytest.mark.parametrize(
    "budget", [400, pytest.param(20_000, marks=pytest.mark.pcap_fuzz_long)]
)
def test_label_mutations(label_files, tmp_path, budget):
    seeds = [
        lines_of(path.read_bytes(), 60) for path in label_files.values()
    ]
    path = tmp_path / "labels.csv"
    accepted = handed_over = failed = 0
    for case in range(budget):
        rng = random.Random(case)  # each case replays on its own
        if rng.random() < 0.5:
            lines = rng.choice(seeds)
            rows = len(lines) - 1
        else:
            lines, rows = hand_built(rng)
        kind, data, rows = mutate(lines, rows, rng)
        path.write_bytes(data)
        try:
            if assert_paths_agree(path, rows):
                accepted += 1
            else:
                handed_over += 1
            failed += isinstance(outcome(path, rows), str)
        except Exception as exc:
            raise AssertionError(f"label fuzz case {case} ({kind}): {exc!r}") from exc
    assert accepted and handed_over and failed
