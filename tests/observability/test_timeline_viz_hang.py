"""Tests for timelines, the 3D visualization and hang localization."""

import pytest

from repro.observability import (
    DependencyGraph,
    DistributedTimeline,
    attribute_decline,
    launch_skew_trend,
    localize_hang,
    pipeline_group_timeline,
    rank_view,
    render,
    simulate_timeout_logs,
)
from repro.parallel import ParallelPlan
from repro.sim import TraceRecorder


PLAN = ParallelPlan(dp=2, tp=4, pp=4)  # 32 ranks


def make_trace():
    trace = TraceRecorder()
    # Two-stage toy pipeline: rank 0 works 0-1 and 2-3; rank 1 works 1-2.
    trace.record("F0", rank=0, start=0.0, end=1.0)
    trace.record("F1", rank=1, start=1.0, end=2.0)
    trace.record("B0", rank=0, start=2.0, end=3.0)
    trace.record("send", rank=0, start=1.0, end=1.1, stream="comm")
    return trace


def test_timeline_merge_and_extent():
    tl = DistributedTimeline.from_trace(make_trace())
    assert tl.span_count == 4
    assert tl.extent() == (0.0, 3.0)
    assert set(tl.lanes) == {0, 1}


def test_timeline_gaps_are_bubbles():
    tl = DistributedTimeline.from_trace(make_trace())
    gaps = tl.gaps(0)
    assert (1.1, 2.0) in gaps  # idle between send and B0
    assert tl.bubble_time(0) == pytest.approx(0.9)
    assert tl.gaps(1) == []


def test_timeline_dependencies():
    trace = make_trace()
    tl = DistributedTimeline.from_trace(trace)
    b0 = next(s for s in tl.spans if s.name == "B0")
    deps = tl.dependencies_of(b0)
    # B0 at t=2 plausibly waited on rank 1's F1 ending at t=2.
    assert any(d.name == "F1" for d in deps)


def test_timeline_render():
    tl = DistributedTimeline.from_trace(make_trace())
    text = tl.render_ascii(width=40)
    assert "rank     0" in text
    assert "#" in text and "~" in text
    with pytest.raises(ValueError):
        tl.render_ascii(width=5)


def test_pipeline_group_timeline_filters():
    trace = make_trace()
    trace.record("other", rank=9, start=0.0, end=1.0)
    tl = pipeline_group_timeline(trace, pp_group=[0, 1])
    assert all(s.rank in (0, 1) for s in tl.spans)
    with pytest.raises(ValueError):
        pipeline_group_timeline(trace, [])


# -- 3D visualization -----------------------------------------------------


def test_rank_view_coordinates():
    view = rank_view(PLAN, rank=13)
    assert (view.pp_rank, view.dp_rank, view.tp_rank) == PLAN.coords(13)
    assert 13 not in view.tp_peers
    assert len(view.tp_peers) == PLAN.tp - 1
    assert len(view.dp_peers) == PLAN.dp - 1


def test_rank_view_operations_cover_dimensions():
    ops = rank_view(PLAN, 0).operations
    assert any(o.startswith("tp.") for o in ops)
    assert any(o.startswith("dp.") for o in ops)
    assert any(o.startswith("pp.") for o in ops)


def test_render_includes_error():
    text = render(rank_view(PLAN, 5, error="NCCL timeout"))
    assert "rank 5" in text
    assert "ERROR: NCCL timeout" in text


def test_dependency_graph_peers():
    graph = DependencyGraph(PLAN)
    assert graph.blocking_peers(0, "tp.all_gather") == [1, 2, 3]
    assert graph.blocking_peers(0, "pp.recv(activations)") == [PLAN.prev_pp_rank(0)]
    with pytest.raises(ValueError):
        graph.blocking_peers(0, "mystery")


def test_affected_by_fault():
    graph = DependencyGraph(PLAN)
    affected = graph.affected_by(0)
    assert affected["tensor"] == [1, 2, 3]
    assert 0 not in affected["pipeline"]


# -- hang localization -----------------------------------------------------


def test_localize_hang_finds_silent_ranks():
    logs = simulate_timeout_logs(PLAN, faulty_ranks=[5])
    diagnosis = localize_hang(PLAN, logs)
    assert diagnosis.hung_ranks == {5}
    assert diagnosis.hung_nodes == {0}
    assert diagnosis.consistent


def test_localize_hang_multiple_faults():
    logs = simulate_timeout_logs(PLAN, faulty_ranks=[3, 17])
    diagnosis = localize_hang(PLAN, logs)
    assert diagnosis.hung_ranks == {3, 17}
    assert diagnosis.hung_nodes == {0, 2}


def test_localize_hang_validation():
    with pytest.raises(ValueError):
        localize_hang(PLAN, {999: None})
    with pytest.raises(ValueError):
        simulate_timeout_logs(PLAN, faulty_ranks=[PLAN.world_size])


def test_localize_hang_inconsistent_when_waiters_point_elsewhere():
    # Rank 5 is silent, but every waiter logs an operation the dependency
    # graph cannot resolve — nothing points at the hung rank, so the
    # diagnosis must flag the logs as inconsistent rather than trusting them.
    logs = {r: "host.gc_pause" for r in range(PLAN.world_size)}
    logs[5] = None
    diagnosis = localize_hang(PLAN, logs)
    assert diagnosis.hung_ranks == {5}
    assert not diagnosis.consistent


def test_localize_hang_all_silent_is_vacuously_consistent():
    # No waiter logged anything: there is no evidence to contradict.
    logs = {r: None for r in range(PLAN.world_size)}
    diagnosis = localize_hang(PLAN, logs)
    assert diagnosis.hung_ranks == set(range(PLAN.world_size))
    assert diagnosis.waiting_ranks == {}
    assert diagnosis.consistent


def test_fault_driver_timeline_renders_recovery_spans():
    # A hub-instrumented production run yields a fault lane whose spans
    # load straight into the timeline tooling used for hang forensics.
    import numpy as np

    from repro.fault import CheckpointPlanner, FaultInjector, ProductionRun
    from repro.model import GPT_175B
    from repro.observability import TelemetryHub
    from repro.parallel import plan_for_gpus

    hub = TelemetryHub()
    plan = plan_for_gpus(256, tp=8, pp=8)
    run = ProductionRun(
        plan,
        FaultInjector(n_nodes=256, rng=np.random.default_rng(5)),
        planner=CheckpointPlanner(model=GPT_175B, plan=plan),
        rng=np.random.default_rng(5),
        hub=hub,
    )
    result = run.run(7 * 86400.0)
    assert result.restarts >= 1
    tl = DistributedTimeline.from_trace(hub.recorder("fault"))
    assert tl.span_count >= 2 * result.restarts  # detect + recover per incident
    start, end = tl.extent()
    assert 0.0 <= start < end <= result.wall_time
    text = tl.render_ascii(width=72)
    assert "rank" in text and "#" in text


# -- MFU decline attribution -------------------------------------------------


def _record_run(growing_rs: bool, n_steps=200):
    timer = TraceRecorder()
    for step in range(n_steps):
        for rank in (0, 1):
            timer.record("forward", rank, 0.0, 0.5, step=step)
            timer.record("backward", rank, 0.0, 1.0, step=step)
            timer.record("optimizer", rank, 0.0, 0.05, step=step)
            skew = (step * 2e-4) if (growing_rs and rank == 1) else 0.0
            start = 2.0 + skew
            timer.record("reduce_scatter", rank, start, start + 0.03 + skew, step=step)
    return timer


def test_attribute_decline_finds_reduce_scatter():
    timer = _record_run(growing_rs=True)
    result = attribute_decline(timer)
    assert result.culprit == "reduce_scatter"
    assert "forward" in result.stable_segments
    assert result.launch_skew_growing
    assert "GC" in result.conclusion or "staggered" in result.conclusion


def test_attribute_decline_stable_run():
    timer = _record_run(growing_rs=False)
    result = attribute_decline(timer)
    assert result.culprit == "none"
    assert not result.launch_skew_growing


def test_launch_skew_trend_positive_when_staggered():
    timer = _record_run(growing_rs=True)
    assert launch_skew_trend(timer, "reduce_scatter") > 0
    assert launch_skew_trend(timer, "forward") == 0.0


def test_attribute_decline_validation():
    with pytest.raises(ValueError):
        attribute_decline(TraceRecorder())
