"""Performance heat-map and straggler detection (§5.1, Figure 7).

Aggregates per-rank computation latencies (averaged across steps) into a
machine-dimension heat map, flags outlier machines by robust statistics
(median absolute deviation), and renders an ASCII version of Figure 7.
The paper's finding: ~0.5% of machines run ~10% slower; excluding them
makes peak MFU consistent across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..sim.trace import Span


@dataclass(frozen=True)
class HeatmapResult:
    """Per-rank mean latency for one segment, with outlier analysis."""

    segment: str
    ranks: Tuple[int, ...]
    latencies: Tuple[float, ...]
    outliers: Tuple[int, ...]  # ranks flagged as stragglers
    median: float
    threshold: float

    @property
    def outlier_fraction(self) -> float:
        return len(self.outliers) / len(self.ranks) if self.ranks else 0.0


def analyze(
    spans: Iterable[Span],
    segment: str = "forward",
    mad_multiplier: float = 5.0,
    min_relative_excess: float = 0.04,
) -> HeatmapResult:
    """Flag ranks whose mean latency is anomalously high.

    ``spans`` is any iterable of segment spans (a
    :class:`~repro.sim.trace.TraceRecorder`, a hub lane, a view's
    spans); each rank's latency is the mean duration of its spans named
    ``segment``, in input order.  A rank is a straggler when it exceeds
    the median by both ``mad_multiplier`` MADs *and*
    ``min_relative_excess`` of the median — the second guard avoids
    flagging noise on near-uniform fleets.
    """
    if mad_multiplier <= 0:
        raise ValueError("mad_multiplier must be positive")
    durations: Dict[int, List[float]] = {}
    for span in spans:
        if span.name == segment:
            durations.setdefault(span.rank, []).append(span.duration)
    if not durations:
        raise KeyError(f"no spans for segment {segment!r}")
    ranks = sorted(durations)
    arr = np.array([float(np.mean(durations[r])) for r in ranks])
    median = float(np.median(arr))
    mad = float(np.median(np.abs(arr - median)))
    threshold = median + max(mad_multiplier * mad, min_relative_excess * median)
    outliers = tuple(int(r) for r, v in zip(ranks, arr) if v > threshold)
    return HeatmapResult(
        segment=segment,
        ranks=tuple(ranks),
        latencies=tuple(float(v) for v in arr),
        outliers=outliers,
        median=median,
        threshold=threshold,
    )


def straggler_machines(
    result: HeatmapResult, gpus_per_node: int = 8
) -> List[int]:
    """Collapse straggler ranks to machine indices (Figure 7's unit)."""
    if gpus_per_node < 1:
        raise ValueError("gpus_per_node must be >= 1")
    return sorted({r // gpus_per_node for r in result.outliers})


_SHADES = " .:-=+*#%@"


def render_ascii(
    result: HeatmapResult, width: int = 64, label: Optional[str] = None
) -> str:
    """An ASCII rendition of the Figure 7 heat map (one row per band).

    Ranks are binned into ``width`` columns; darker glyphs are slower.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    arr = np.asarray(result.latencies)
    lo, hi = float(arr.min()), float(arr.max())
    span = (hi - lo) or 1.0
    bins = np.array_split(arr, min(width, len(arr)))
    cells = []
    for chunk in bins:
        level = (float(chunk.mean()) - lo) / span
        cells.append(_SHADES[min(len(_SHADES) - 1, int(level * (len(_SHADES) - 1)))])
    header = label or f"heat-map [{result.segment}] median={result.median * 1e3:.2f}ms"
    marks = f"outliers: {len(result.outliers)} ranks ({result.outlier_fraction:.2%})"
    return f"{header}\n|{''.join(cells)}|\n{marks}"


def consistent_peak_mfu(
    run_mfus_with_stragglers: List[float], run_mfus_clean: List[float]
) -> Tuple[float, float]:
    """Spread (max-min) of peak MFU before/after excluding stragglers."""
    if not run_mfus_with_stragglers or not run_mfus_clean:
        raise ValueError("need at least one run in each condition")
    before = max(run_mfus_with_stragglers) - min(run_mfus_with_stragglers)
    after = max(run_mfus_clean) - min(run_mfus_clean)
    return before, after
