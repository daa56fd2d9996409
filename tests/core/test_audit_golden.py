"""The audit contract: ``repro audit --json --catalog`` against a capture.

``golden/audits.json`` holds the four audit payloads as the separate
audit commands printed them before they were merged into one verb.
Every ``operations``, ``catalog`` and ``summary`` block must still be
equal as parsed JSON.  The races ``modules`` block is not captured: it
carries absolute line numbers of the analysis modules themselves.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden" / "audits.json").read_text())


@pytest.fixture(scope="module")
def payload():
    import contextlib
    import io

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["audit", "--json", "--catalog"]) == 0
    return json.loads(out.getvalue())


def test_sections_are_the_golden_sections(payload):
    assert set(payload) == set(GOLDEN)


@pytest.mark.parametrize("section", sorted(GOLDEN))
@pytest.mark.parametrize("block", ["operations", "catalog", "summary"])
def test_block_matches_golden(payload, section, block):
    assert payload[section].get(block) == GOLDEN[section].get(block)
