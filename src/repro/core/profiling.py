"""Per-operation execution profiles.

The paper: "the execution engine generates plots of memory and time
spent in each operation" to point users at the operations needing
optimisation.  The engine records a span per step
(:mod:`repro.obs.spans`); an :class:`OperationProfile` is the flat view
of one such step span, and :class:`ProfileReport` renders the table and
flags hotspots.  The full hierarchy (run > step, with cache keys
and thread attribution) lives in the trace -- see ``repro trace`` and
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs import Span, format_bytes


@dataclass
class OperationProfile:
    """Wall time and peak memory of one executed operation."""

    step: int
    operation: str
    output_name: str
    wall_seconds: float
    peak_memory_bytes: int
    cached: bool = False

    @classmethod
    def from_span(cls, span: Span) -> "OperationProfile":
        """The flat profile view of one engine step span."""
        attrs = span.attributes
        return cls(
            step=attrs["step"],
            operation=attrs["operation"],
            output_name=attrs["output"],
            wall_seconds=attrs.get("wall_seconds", 0.0),
            peak_memory_bytes=attrs.get("peak_memory_bytes", 0),
            cached=bool(attrs.get("cached", False)),
        )


@dataclass
class ProfileReport:
    """All profiles of one pipeline run."""

    profiles: list[OperationProfile] = field(default_factory=list)

    def add_span(self, span: Span) -> None:
        """Record the profile view of a finished (or finishing) step span."""
        self.profiles.append(OperationProfile.from_span(span))

    @property
    def total_seconds(self) -> float:
        return sum(p.wall_seconds for p in self.profiles)

    @property
    def peak_memory_bytes(self) -> int:
        return max((p.peak_memory_bytes for p in self.profiles), default=0)

    def hotspots(self, top: int = 3) -> list[OperationProfile]:
        """The slowest uncached operations, most expensive first.

        Ties break on the step index, so the ordering is deterministic
        (cached steps all report 0.0 s).
        """
        live = [p for p in self.profiles if not p.cached]
        return sorted(live, key=lambda p: (-p.wall_seconds, p.step))[:top]

    def render(self) -> str:
        """A fixed-width text table of the run."""
        lines = [
            f"{'step':>4}  {'operation':<20} {'output':<18} "
            f"{'time (s)':>9}  {'peak mem':>10}  cached"
        ]
        for p in self.profiles:
            memory = format_bytes(p.peak_memory_bytes)
            lines.append(
                f"{p.step:>4}  {p.operation:<20} {p.output_name:<18} "
                f"{p.wall_seconds:>9.4f}  {memory:>10}  "
                f"{'yes' if p.cached else 'no'}"
            )
        lines.append(
            f"total: {self.total_seconds:.4f}s, "
            f"peak {format_bytes(self.peak_memory_bytes)}"
        )
        return "\n".join(lines)
