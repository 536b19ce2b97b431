"""Figure 8: distributed timeline trace of one pipeline-parallel group.

The pipeline executor records every F/B task as a span; merging the
spans of a pipeline group onto one timeline shows execution order,
warm-up structure, bubbles and cross-stage dependencies — the exact
content of the paper's trace view.
"""

from __future__ import annotations

from conftest import print_banner

from repro.core.features import MEGASCALE_ISO_BATCH, MEGATRON_LM
from repro.model import GPT_175B
from repro.observability import DistributedTimeline
from repro.parallel import plan_for_gpus
from repro.sim import TraceRecorder
from repro.training import IterationEngine


def compute_traces():
    plan = plan_for_gpus(256, tp=8, pp=8, vpp=2, micro_batch=1)
    out = {}
    for features in (MEGATRON_LM, MEGASCALE_ISO_BATCH):
        engine = IterationEngine(GPT_175B, plan, features)
        trace = TraceRecorder()
        makespan, _busy = engine.pipeline_makespan(m=16, trace=trace)
        out[features.name] = (trace, makespan)
    return out


def test_fig8_timeline(benchmark):
    traces = benchmark.pedantic(compute_traces, rounds=1, iterations=1)

    print_banner("Figure 8 — pipeline-group timeline (stage lanes, '#'=compute)")
    for name, (trace, makespan) in traces.items():
        timeline = DistributedTimeline.from_trace(trace)
        print(f"\n[{name}] makespan {makespan * 1e3:.0f} ms")
        print(timeline.render_ascii(width=76))
        bubbles = [timeline.bubble_time(rank) for rank in sorted(timeline.lanes)]
        print(f"per-stage bubble time (ms): {[round(b * 1e3) for b in bubbles]}")

    # -- shape assertions ----------------------------------------------------
    baseline_trace, baseline_span = traces["megatron-lm"]
    mega_trace, mega_span = traces["megascale-iso-batch"]
    assert mega_span < baseline_span  # overlap shortens the pipeline phase

    timeline = DistributedTimeline.from_trace(mega_trace)
    # Every stage executed all its tasks: 16 microbatches x 2 chunks x F+B.
    for rank in timeline.lanes:
        spans = [s for s in timeline.spans if s.rank == rank and s.stream == "compute"]
        assert len(spans) == 16 * 2 * 2
    # Warm-up structure: later stages start later (stage 0 first).
    starts = {
        rank: min(s.start for s in timeline.spans if s.rank == rank)
        for rank in timeline.lanes
    }
    ordered = [starts[r] for r in sorted(starts)]
    assert ordered == sorted(ordered)
    # A mid-pipeline task's dependencies point at the previous stage.
    mid = next(
        s
        for s in timeline.spans
        if s.rank == 3 and s.name == "F" and s.attr("microbatch") == 5
    )
    deps = timeline.dependencies_of(mid)
    assert any(d.rank == 2 for d in deps)
