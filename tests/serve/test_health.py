"""The atomic status file and its readiness semantics."""

import json

import pytest

from repro.core.errors import InputError
from repro.serve import ServeStatus
from repro.serve.health import write_atomically


class TestServeStatus:
    def test_unknown_state_rejected(self):
        with pytest.raises(ValueError, match="unknown serve state"):
            ServeStatus(state="zombie")

    def test_write_load_round_trip(self, tmp_path):
        status = ServeStatus(
            state="serving",
            uptime_seconds=12.5,
            dataset="F0",
            chunks_scored=7,
            chunks_quarantined=1,
            packets_ingested=800,
            packets_total=1361,
            queue_depth=2,
            replay_cursor=800,
            last_error="score: FaultInjected",
        )
        path = tmp_path / "status.json"
        status.write(path)
        assert ServeStatus.load(path) == status

    def test_write_is_atomic(self, tmp_path):
        path = tmp_path / "deep" / "status.json"
        ServeStatus(state="serving").write(path)  # creates the parent
        ServeStatus(state="stopped").write(path)
        assert not path.with_name(path.name + ".tmp").exists()
        assert json.loads(path.read_text())["state"] == "stopped"

    def test_failed_write_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "cache.bin"
        write_atomically(path, lambda handle: handle.write(b"previous"))

        def torn(handle):
            handle.write(b"half")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            write_atomically(path, torn)
        assert path.read_bytes() == b"previous"
        assert [p.name for p in tmp_path.iterdir()] == ["cache.bin"]

    @pytest.mark.parametrize("path_text, message", [
        (None, "no status file at"),
        ("{not json", "status file is not valid JSON"),
        ("[1, 2]", "status.json: not a JSON object"),
        ('{"bogus": 1}', "unknown field(s) bogus"),
        ('{"state": "zombie"}', "unknown serve state"),
        ('{"uptime_seconds": "x"}', "field 'uptime_seconds' holds a str"),
        ('{"checkpoint_chunk": 1.5}',
         "field 'checkpoint_chunk' holds a float"),
    ], ids=["missing", "invalid-json", "wrong-shape", "unknown-field",
            "bad-state", "wrong-type", "float-for-int"])
    def test_load_refuses_bad_files(self, tmp_path, path_text, message):
        path = tmp_path / "status.json"
        if path_text is not None:
            path.write_text(path_text)
        with pytest.raises(InputError) as info:
            ServeStatus.load(path)
        assert message in str(info.value)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("state,ready", [
        ("starting", True),
        ("serving", True),
        ("reloading", True),
        ("draining", True),
        ("stopped", False),
    ])
    def test_ready_tracks_liveness(self, state, ready):
        assert ServeStatus(state=state).ready is ready

    def test_render_mentions_the_essentials(self):
        status = ServeStatus(
            state="serving",
            chunks_scored=7,
            chunks_quarantined=2,
            packets_total=100,
            checkpoint_chunk=5,
            last_error="ingest: OSError",
        )
        report = status.render()
        assert "serving" in report
        assert "chunks scored       7" in report
        assert "chunk 5" in report
        assert "ingest: OSError" in report

    def test_render_omits_an_empty_error(self):
        assert "last error" not in ServeStatus().render()
