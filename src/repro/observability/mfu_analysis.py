"""MFU-decline attribution (§6.3 "MFU decreasing").

Reproduces the paper's step-by-step investigation: per-step segment
timings show forward/backward/optimizer stable while total step time
grows; reverse-chronological elimination points at the last collective
(the DP gradient reduce-scatter) — and, since network bandwidth is
stable, at *launch-time skew* between ranks rather than slow transfer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Tuple

import numpy as np

from ..sim.trace import Span
from .cuda_events import SEGMENTS


@dataclass(frozen=True)
class SegmentTrend:
    """Linear trend of one segment's per-step duration."""

    segment: str
    slope_per_step: float
    mean: float

    @property
    def growing(self) -> bool:
        # A segment is "growing" when its trend is material relative to
        # its own magnitude (0.01% of mean per step ~ doubles in 10k steps).
        return self.slope_per_step > max(1e-7, 1e-4 * self.mean)


def _by_step(
    spans: Iterable[Span], segment: str, value: Callable[[Span], float]
) -> Dict[int, List[float]]:
    """``value`` of each ``segment`` span, grouped by its ``step`` attr."""
    per_step: Dict[int, List[float]] = {}
    for span in spans:
        step = span.attr("step")
        if span.name == segment and step is not None:
            per_step.setdefault(step, []).append(value(span))
    return per_step


def segment_trends(spans: Iterable[Span]) -> List[SegmentTrend]:
    """Fit per-step linear trends for every instrumented segment.

    Only names in :data:`~repro.observability.cuda_events.SEGMENTS`
    count, so a hub lane's ``iteration``/``expectation`` spans stay out.
    """
    spans = list(spans)
    trends = []
    for segment in sorted({s.name for s in spans if s.name in SEGMENTS}):
        per_step = _by_step(spans, segment, lambda s: s.duration)
        steps = sorted(per_step)
        if len(steps) < 2:
            continue
        # Worst rank per step: synchronous training waits for the slowest.
        y = np.array([max(per_step[s]) for s in steps])
        x = np.array(steps, dtype=float)
        slope = float(np.polyfit(x, y, 1)[0])
        trends.append(SegmentTrend(segment=segment, slope_per_step=slope, mean=float(y.mean())))
    return trends


@dataclass(frozen=True)
class DeclineAttribution:
    """Conclusion of the investigation."""

    culprit: str  # the growing segment
    stable_segments: Tuple[str, ...]
    launch_skew_growing: bool  # ranks start the collective increasingly apart
    conclusion: str


def attribute_decline(spans: Iterable[Span]) -> DeclineAttribution:
    """Run the §6.3 elimination on recorded segment spans."""
    spans = list(spans)
    trends = segment_trends(spans)
    if not trends:
        raise ValueError("not enough steps recorded to fit trends")
    growing = [t for t in trends if t.growing]
    stable = tuple(t.segment for t in trends if not t.growing)
    if not growing:
        return DeclineAttribution(
            culprit="none",
            stable_segments=stable,
            launch_skew_growing=False,
            conclusion="no segment shows a growing trend; MFU is stable",
        )
    culprit = max(growing, key=lambda t: t.slope_per_step)
    skew = launch_skew_trend(spans, culprit.segment) > 0
    if culprit.segment in ("reduce_scatter", "all_gather") and skew:
        conclusion = (
            f"{culprit.segment} wait grows while compute segments are stable and "
            "bandwidth is unchanged: ranks launch the collective increasingly "
            "staggered — look for GC/problematic code in the forward path"
        )
    else:
        conclusion = f"{culprit.segment} duration grows over steps"
    return DeclineAttribution(
        culprit=culprit.segment,
        stable_segments=stable,
        launch_skew_growing=skew,
        conclusion=conclusion,
    )


def launch_skew_trend(spans: Iterable[Span], segment: str) -> float:
    """Trend of the spread in ranks' start times for one segment.

    The paper's scaled-down two-rank experiment measured reduce-scatter
    launch times "fluctuating reciprocally" with a growing stagger.
    """
    per_step = _by_step(spans, segment, lambda s: s.start)
    steps = sorted(s for s, starts in per_step.items() if len(starts) >= 2)
    if len(steps) < 2:
        return 0.0
    spread = np.array([max(per_step[s]) - min(per_step[s]) for s in steps])
    return float(np.polyfit(np.array(steps, dtype=float), spread, 1)[0])
