"""The daemon's externally visible health: a small atomic status file.

``repro serve`` is designed to be watched from outside the process --
a readiness probe, an operator's shell loop, the CI chaos job.  The
daemon rewrites one JSON status file at every checkpoint-ish moment
(startup, each scored chunk batch, reloads, shutdown) via the
write-to-temp-then-rename dance, so a reader never observes a torn
file: it sees the previous complete status or the next one.

``repro serve --status PATH`` renders the file and doubles as a
readiness check: exit 0 while the daemon is starting/serving/draining,
3 once it stopped, 2 when no status exists.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import BinaryIO, Callable

from repro.core.errors import dataclass_from_json, read_json

#: lifecycle states a daemon reports
STATES = ("starting", "serving", "reloading", "draining", "stopped")


def write_atomically(
    path: str | Path, write: Callable[[BinaryIO], object]
) -> None:
    """Replace ``path`` with what ``write`` puts into a binary handle.

    The bytes go to a temp file beside ``path`` that is then renamed
    over it, so a reader -- and a ``write`` that raises halfway --
    leaves the previous file or the new one, never a torn one.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(path.name + ".tmp")
    try:
        with open(temp, "wb") as handle:
            write(handle)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
    os.replace(temp, path)


@dataclass
class ServeStatus:
    """One self-contained snapshot of daemon health."""

    state: str = "starting"
    uptime_seconds: float = 0.0
    dataset: str = ""
    template: str = ""
    chunks_scored: int = 0
    chunks_quarantined: int = 0
    chunks_dropped: int = 0
    packets_ingested: int = 0
    packets_total: int = 0
    queue_depth: int = 0
    replay_cursor: int = 0
    reloads: int = 0
    watchdog_restarts: int = 0
    checkpoint_chunk: int = -1
    last_error: str = ""
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.state not in STATES:
            raise ValueError(
                f"unknown serve state {self.state!r}; choose from "
                f"{', '.join(STATES)}"
            )

    # ------------------------------------------------------------------

    def write(self, path: str | Path) -> None:
        """Atomically replace ``path`` with this status."""
        payload = json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"
        write_atomically(
            path, lambda handle: handle.write(payload.encode("utf-8"))
        )

    @classmethod
    def load(cls, path: str | Path) -> "ServeStatus":
        """Read a status file; :class:`InputError` names the path and
        the reason when it is missing, not JSON, or not a status."""
        payload = read_json(path, "status file")
        return dataclass_from_json(cls, payload, str(path))

    # ------------------------------------------------------------------

    @property
    def ready(self) -> bool:
        """Liveness for probes: the daemon is (still) doing its job."""
        return self.state in ("starting", "serving", "reloading", "draining")

    def render(self) -> str:
        """The human-facing status report."""
        lines = [
            f"state               {self.state}",
            f"uptime              {self.uptime_seconds:.1f}s",
            f"dataset             {self.dataset or '-'}",
            f"template            {self.template or '-'}",
            f"replay              {self.replay_cursor}/{self.packets_total}"
            f" packets ({self.packets_ingested} ingested)",
            f"chunks scored       {self.chunks_scored}",
            f"chunks quarantined  {self.chunks_quarantined}",
            f"chunks dropped      {self.chunks_dropped}",
            f"queue depth         {self.queue_depth}",
            f"reloads             {self.reloads}",
            f"watchdog restarts   {self.watchdog_restarts}",
            f"last checkpoint     "
            f"{'chunk ' + str(self.checkpoint_chunk) if self.checkpoint_chunk >= 0 else 'none'}",
        ]
        if self.last_error:
            lines.append(f"last error          {self.last_error}")
        return "\n".join(lines)
