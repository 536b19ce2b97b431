"""Distributed timeline traces (§5.1, Figure 8).

Aggregates trace spans from all ranks of a communication group onto one
timeline, exposing execution order, pipeline bubbles and synchronization
structure that single-node profilers cannot show.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..sim.trace import Span


@dataclass
class DistributedTimeline:
    """Spans of many ranks merged onto a single time axis."""

    spans: List[Span]  # sorted by (start, rank)
    lanes: Dict[int, int]  # rank -> lane index

    @classmethod
    def from_trace(
        cls, trace: Iterable[Span], ranks: Optional[List[int]] = None
    ) -> "DistributedTimeline":
        spans = sorted(trace, key=lambda s: (s.start, s.rank))
        selected = ranks if ranks is not None else sorted({s.rank for s in spans})
        lanes = {rank: i for i, rank in enumerate(selected)}
        return cls(spans=[s for s in spans if s.rank in lanes], lanes=lanes)

    @property
    def span_count(self) -> int:
        return len(self.spans)

    def extent(self) -> Tuple[float, float]:
        if not self.spans:
            return (0.0, 0.0)
        return (min(s.start for s in self.spans), max(s.end for s in self.spans))

    def gaps(self, rank: int, min_gap: float = 0.0) -> List[Tuple[float, float]]:
        """Idle intervals on one rank's lane — the pipeline bubbles."""
        spans = sorted((s for s in self.spans if s.rank == rank), key=lambda s: s.start)
        gaps = []
        for prev, nxt in zip(spans, spans[1:]):
            if nxt.start - prev.end > min_gap:
                gaps.append((prev.end, nxt.start))
        return gaps

    def bubble_time(self, rank: int) -> float:
        return sum(b - a for a, b in self.gaps(rank))

    def dependencies_of(self, span: Span) -> List[Span]:
        """Spans on other ranks this span plausibly waited for: the latest
        span per other rank ending at or before this one's start (the
        Figure 8 'dependencies become visible when an event is selected')."""
        out: Dict[int, Span] = {}
        for s in self.spans:
            if s.rank == span.rank or s.end > span.start + 1e-12:
                continue
            held = out.get(s.rank)
            if held is None or s.end > held.end:
                out[s.rank] = s
        return [out[r] for r in sorted(out)]

    def render_ascii(self, width: int = 80) -> str:
        """Text rendering: one lane per rank, '#' busy, '.' idle."""
        if width < 10:
            raise ValueError("width must be >= 10")
        start, end = self.extent()
        span = (end - start) or 1.0
        lines = []
        for rank in sorted(self.lanes, key=self.lanes.get):
            row = ["."] * width
            for s in self.spans:
                if s.rank != rank:
                    continue
                a = int((s.start - start) / span * (width - 1))
                b = int((s.end - start) / span * (width - 1))
                glyph = "#" if s.stream != "comm" else "~"
                for i in range(a, max(a, b) + 1):
                    row[i] = glyph
            lines.append(f"rank {rank:5d} |{''.join(row)}|")
        return "\n".join(lines)


def pipeline_group_timeline(
    trace: Iterable[Span], pp_group: List[int]
) -> DistributedTimeline:
    """Figure 8's view: the events of one pipeline-parallel group."""
    if not pp_group:
        raise ValueError("pipeline group must be non-empty")
    return DistributedTimeline.from_trace(trace, ranks=pp_group)
