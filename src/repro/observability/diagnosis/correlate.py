"""Causal-candidate collection from the non-training trace lanes.

Each collector walks one lane of a :class:`TelemetryView` and proposes
:class:`Candidate` causes with a time window, an implicated cost-model
term (where one exists), a prior weight and human-readable evidence.
The engine then keeps only candidates that temporally overlap an
anomaly / residual window and scores them.

Weights encode how *specific* the evidence is: a fault instant with a
blast radius names its cause outright (3.0); congestion telemetry is
strong but circumstantial (2.0–2.5); a bare residual window only says
which term drifted (1.5–2.0).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .baselines import ResidualWindow
from .view import TelemetryView


@dataclass
class Candidate:
    """A possible root cause with its evidence window."""

    cause: str
    subsystem: str
    start: float
    end: float
    term: Optional[str]  # cost-model term this cause would inflate
    weight: float
    evidence: List[str] = field(default_factory=list)
    details: Dict[str, object] = field(default_factory=dict)


def overlap_score(
    c_start: float, c_end: float, w_start: float, w_end: float
) -> float:
    """Containment-style temporal overlap in [0, 1].

    Normalizes by the *shorter* of the two intervals so a short, sharp
    piece of evidence (a fault instant, a congestion probe) fully inside
    a long anomaly window still scores 1.0.
    """
    lo, hi = max(c_start, w_start), min(c_end, w_end)
    if hi < lo:
        return 0.0
    shortest = max(min(c_end - c_start, w_end - w_start), 1e-9)
    return min(1.0, (hi - lo + 1e-9) / shortest)


def fault_candidates(view: TelemetryView) -> List[Candidate]:
    """Fault-lane instants, classified by failure-domain blast radius."""
    out: List[Candidate] = []
    recovers = view.spans("fault", name="recover")
    for inst in view.instants("fault"):
        if inst.name == "dp-shrink":
            continue  # corroborating detail of a replan, not a cause
        attrs = dict(inst.attrs)
        domain = str(attrs.get("domain", ""))
        blast = int(attrs.get("blast_radius", 1) or 1)
        if blast > 1 and domain.startswith(("tor", "pod", "leaf")):
            cause = "tor-blast"
        elif blast > 1 and domain.startswith("rack"):
            cause = "rack-blast"
        else:
            cause = "node-fault"
        end = inst.ts
        for span in recovers:
            if span.rank == inst.rank and span.start >= inst.ts:
                end = max(end, span.end)
                break
        evidence = [
            f"fault instant {inst.name} at t={inst.ts:.1f}s "
            f"(domain {domain or 'node'}, blast radius {blast})"
        ]
        if end > inst.ts:
            evidence.append(f"recovery completed at t={end:.1f}s")
        out.append(
            Candidate(
                cause=cause,
                subsystem="fault",
                start=inst.ts,
                end=end if end > inst.ts else inst.ts,
                term=None,
                weight=3.0,
                evidence=evidence,
                details={"kind": inst.name, "domain": domain, "blast_radius": blast},
            )
        )
    return out


def scheduler_candidates(view: TelemetryView) -> List[Candidate]:
    """Preemption / shrink decisions on the scheduler lane."""
    out: List[Candidate] = []
    horizon = view.end_time()
    for inst in view.instants("scheduler"):
        if inst.name not in ("preempt", "shrink"):
            continue
        attrs = dict(inst.attrs)
        out.append(
            Candidate(
                cause="preemption",
                subsystem="scheduler",
                start=inst.ts,
                end=horizon,
                term=None,
                weight=3.0,
                evidence=[
                    f"scheduler {inst.name} decision at t={inst.ts:.1f}s "
                    f"({', '.join(f'{k}={v}' for k, v in sorted(attrs.items())) or 'no detail'})"
                ],
                details=dict(attrs, action=inst.name),
            )
        )
    return out


def network_candidates(view: TelemetryView) -> List[Candidate]:
    """Link flaps and bottleneck-experiment congestion evidence."""
    out: List[Candidate] = []
    instants = view.instants("network")
    for inst in instants:
        if inst.name != "link-down":
            continue
        end = inst.ts + 30.0
        for up in instants:
            if up.name == "link-up" and up.ts > inst.ts and up.attrs == inst.attrs:
                end = up.ts
                break
        out.append(
            Candidate(
                cause="link-flap",
                subsystem="network",
                start=inst.ts,
                end=end,
                term="dp_exposed",
                weight=2.0,
                evidence=[f"link went down at t={inst.ts:.1f}s, up at t={end:.1f}s"],
                details=dict(inst.attrs),
            )
        )
    for span in view.spans("network"):
        if not span.name.startswith("bottleneck["):
            continue
        pause = float(span.attr("pfc_pause_fraction") or 0.0)
        goodput = float(span.attr("goodput_fraction") or 1.0)
        if pause > 0.01 or goodput < 0.9:
            out.append(
                Candidate(
                    cause="congestion",
                    subsystem="network",
                    start=span.start,
                    end=span.end,
                    term="dp_exposed",
                    weight=2.0,
                    evidence=[
                        f"{span.name} at t={span.start:.1f}s: goodput "
                        f"{goodput:.2f}, PFC pause fraction {pause:.2f}"
                    ],
                    details={
                        "algorithm": span.attr("algorithm"),
                        "goodput_fraction": goodput,
                        "pfc_pause_fraction": pause,
                    },
                )
            )
    return out


def collective_candidates(view: TelemetryView) -> List[Candidate]:
    """Routed collectives whose flows show an ECMP hash collision."""
    out: List[Candidate] = []
    for span in view.spans("collectives"):
        load = int(span.attr("max_link_load") or 0)
        paused = int(span.attr("paused_flows") or 0)
        if load <= 1 and paused == 0:
            continue
        out.append(
            Candidate(
                cause="ecmp-collision",
                subsystem="collectives",
                start=span.start,
                end=span.end,
                term="dp_exposed",
                weight=2.5,
                evidence=[
                    f"{span.name} collective at t={span.start:.1f}s has "
                    f"{load} flows hashed onto one link"
                    + (f", {paused} PFC-paused flows" if paused else "")
                ],
                details={
                    "collective": span.name,
                    "max_link_load": load,
                    "paused_flows": paused,
                },
            )
        )
    return out


# What a drifting term implies when no lane names a sharper cause.
_TERM_CAUSES = {
    "pipeline": ("compute-regression", 1.5),
    "data_stall": ("data-pipeline-stall", 2.0),
    "dp_exposed": ("network-congestion", 1.5),
    "optimizer": ("optimizer-regression", 1.5),
    "perturbation": ("software-perturbation", 1.5),
}


def residual_candidates(windows: List[ResidualWindow]) -> List[Candidate]:
    """Term-attribution candidates straight from the residual windows."""
    out: List[Candidate] = []
    for window in windows:
        cause, weight = _TERM_CAUSES.get(window.term, (f"{window.term}-drift", 1.0))
        out.append(
            Candidate(
                cause=cause,
                subsystem="training",
                start=window.start,
                end=window.end,
                term=window.term,
                weight=weight,
                evidence=[
                    f"steps {window.steps[0]}..{window.steps[-1]}: the "
                    f"{window.term} term exceeds the cost model by "
                    f"{window.mean_fraction:.1%} of the iteration (peak "
                    f"{window.peak_fraction:.1%})"
                ],
                details={
                    "term": window.term,
                    "steps": list(window.steps),
                    "mean_fraction": window.mean_fraction,
                },
            )
        )
    return out
