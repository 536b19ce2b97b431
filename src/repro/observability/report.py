"""One-shot diagnosis reports.

Combines the §5 tools — heat-map outliers, segment trends, launch-skew
analysis — into a single operator-facing text report, the analogue of
what the paper's on-call engineer reads when a job misbehaves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from ..sim.trace import Span
from .heatmap import HeatmapResult, analyze, straggler_machines
from .mfu_analysis import DeclineAttribution, attribute_decline


@dataclass(frozen=True)
class TimerReport:
    """Everything the tooling concluded about one run's recordings."""

    heatmap: HeatmapResult
    straggler_nodes: List[int]
    decline: Optional[DeclineAttribution]
    healthy: bool
    recommendations: List[str]

    def render(self) -> str:
        lines = ["=== diagnosis report ==="]
        lines.append(
            f"heat map [{self.heatmap.segment}]: {len(self.heatmap.outliers)} outlier "
            f"rank(s) of {len(self.heatmap.ranks)} "
            f"(median {self.heatmap.median * 1e3:.2f} ms)"
        )
        if self.straggler_nodes:
            lines.append(f"straggler machines: {self.straggler_nodes}")
        if self.decline is not None and self.decline.culprit != "none":
            lines.append(f"trend analysis: {self.decline.conclusion}")
        if self.healthy:
            lines.append("verdict: healthy — no action required")
        else:
            lines.append("verdict: action required")
            for rec in self.recommendations:
                lines.append(f"  -> {rec}")
        return "\n".join(lines)


def diagnose(
    spans: Iterable[Span],
    segment: str = "forward",
    gpus_per_node: int = 8,
) -> TimerReport:
    """Run the full §5 analysis battery on recorded segment spans."""
    spans = list(spans)
    heatmap = analyze(spans, segment)
    nodes = straggler_machines(heatmap, gpus_per_node)
    try:
        decline = attribute_decline(spans)
    except ValueError:
        decline = None

    recommendations: List[str] = []
    if nodes:
        recommendations.append(
            f"evict machine(s) {nodes} via the robust-training framework (§4.1)"
        )
    if decline is not None and decline.culprit != "none":
        if decline.launch_skew_growing:
            recommendations.append(
                "audit the forward path for GC pressure / slow host-side ops (§6.3)"
            )
        else:
            recommendations.append(
                f"investigate the growing {decline.culprit} segment"
            )
    healthy = not recommendations
    return TimerReport(
        heatmap=heatmap,
        straggler_nodes=nodes,
        decline=decline,
        healthy=healthy,
        recommendations=recommendations,
    )
