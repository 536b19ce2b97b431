"""Tests for the combined diagnosis report."""

import numpy as np

from repro.observability.report import diagnose
from repro.sim import TraceRecorder


def make_timer(slow_ranks=(), skew=False, n_ranks=32, n_steps=40):
    rng = np.random.default_rng(0)
    timer = TraceRecorder()
    for step in range(n_steps):
        for rank in range(n_ranks):
            base = 0.1 * (1.12 if rank in slow_ranks else 1.0)
            timer.record("forward", rank, 0.0, base + rng.normal(0, 0.0005), step=step)
            rs_skew = step * 1e-3 if (skew and rank == 1) else 0.0
            start = 1.0 + rs_skew
            timer.record("reduce_scatter", rank, start, start + 0.02 + rs_skew, step=step)
    return timer


def test_healthy_run_reports_healthy():
    report = diagnose(make_timer())
    assert report.healthy
    assert report.straggler_nodes == []
    assert "healthy" in report.render()


def test_straggler_flagged_with_recommendation():
    report = diagnose(make_timer(slow_ranks={9}))
    assert not report.healthy
    assert report.straggler_nodes == [1]  # rank 9 -> machine 1
    text = report.render()
    assert "evict" in text
    assert "action required" in text


def test_decline_flagged_with_gc_recommendation():
    report = diagnose(make_timer(skew=True))
    assert not report.healthy
    assert report.decline is not None
    assert report.decline.culprit == "reduce_scatter"
    assert any("GC" in r for r in report.recommendations)


def test_combined_problems_both_reported():
    report = diagnose(make_timer(slow_ranks={4}, skew=True))
    assert len(report.recommendations) == 2
    text = report.render()
    assert "straggler machines" in text
    assert "trend analysis" in text


def test_single_step_run_skips_trend_analysis():
    # One step cannot support a trend fit; diagnose must degrade to the
    # heat map alone instead of propagating the ValueError.
    report = diagnose(make_timer(n_steps=1))
    assert report.decline is None
    assert report.healthy
    assert "trend analysis" not in report.render()


def test_growing_compute_segment_gets_investigate_recommendation():
    # Forward grows on every rank with no launch skew: the culprit is the
    # segment itself, not GC-staggered collective launches.
    timer = TraceRecorder()
    for step in range(40):
        for rank in range(8):
            timer.record("forward", rank, 0.0, 0.1 + step * 1e-3, step=step)
            timer.record("reduce_scatter", rank, 1.0, 1.0 + 0.02, step=step)
    report = diagnose(timer)
    assert report.decline is not None
    assert report.decline.culprit == "forward"
    assert not report.decline.launch_skew_growing
    assert any("investigate the growing forward" in r for r in report.recommendations)
    assert not report.healthy
