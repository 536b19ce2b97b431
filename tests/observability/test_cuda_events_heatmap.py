"""Tests for segment-span streaming and the straggler heat map."""

import numpy as np
import pytest

from repro.observability import (
    EventStreamer,
    analyze,
    consistent_peak_mfu,
    render_ascii,
    straggler_machines,
)
from repro.sim import TraceRecorder


def make_timer(n_ranks=64, n_steps=10, slow_ranks=(), slowdown=1.12, seed=0):
    """Synthetic fleet: ~constant forward times, some ranks slower."""
    rng = np.random.default_rng(seed)
    timer = TraceRecorder()
    for step in range(n_steps):
        for rank in range(n_ranks):
            base = 0.100 * (slowdown if rank in slow_ranks else 1.0)
            timer.record("forward", rank, 0.0, base + rng.normal(0, 0.001), step=step)
    return timer


def test_analyze_means_each_rank_in_input_order():
    timer = TraceRecorder()
    timer.record("forward", 3, 0.0, 0.1, step=0)
    timer.record("forward", 0, 0.0, 0.3, step=0)
    timer.record("backward", 9, 0.0, 1.0, step=0)
    timer.record("forward", 0, 0.0, 0.1, step=1)
    result = analyze(timer, "forward")
    assert result.ranks == (0, 3)  # sorted; ranks without the segment skipped
    assert result.latencies == (float(np.mean([0.3, 0.1])), 0.1)
    assert result.latencies[0] == pytest.approx(0.2)


def test_timer_validation():
    timer = TraceRecorder()
    with pytest.raises(ValueError):
        timer.record("forward", 0, 0.0, -1.0, step=0)


def test_streamer_end_to_end_no_loss():
    timer = make_timer(n_ranks=4, n_steps=3)
    streamer = EventStreamer()
    streamer.write_log(timer)
    landed = streamer.pump()
    assert landed == len(timer)
    assert streamer.database == list(timer)  # order preserved
    rebuilt = streamer.recorder_from_database()
    assert rebuilt.ranks() == timer.ranks()


def test_streamer_incremental_sync():
    streamer = EventStreamer()
    timer = list(make_timer(n_ranks=2, n_steps=2))
    streamer.write_log(timer[:2])
    assert streamer.sync_to_kafka() == 2
    streamer.write_log(timer[2:])
    assert streamer.sync_to_kafka() == len(timer) - 2
    assert streamer.consume_to_database(max_records=1) == 1
    assert streamer.consume_to_database() == len(timer) - 1


def test_heatmap_finds_planted_stragglers():
    slow = {5, 37}
    timer = make_timer(n_ranks=128, slow_ranks=slow)
    result = analyze(timer, "forward")
    assert set(result.outliers) == slow
    assert result.outlier_fraction == pytest.approx(2 / 128)


def test_heatmap_clean_fleet_has_no_outliers():
    timer = make_timer(n_ranks=64, slow_ranks=())
    result = analyze(timer, "forward")
    assert result.outliers == ()


def test_heatmap_paper_scenario_half_percent():
    # §5.1: ~0.5% of machines ~10% slower.
    n_ranks = 1024
    slow = set(range(0, n_ranks, 200))  # ~0.5%
    timer = make_timer(n_ranks=n_ranks, slow_ranks=slow, slowdown=1.10, seed=3)
    result = analyze(timer, "forward")
    assert set(result.outliers) == slow
    machines = straggler_machines(result, gpus_per_node=8)
    assert machines == sorted({r // 8 for r in slow})


def test_heatmap_validation():
    timer = make_timer(n_ranks=4)
    with pytest.raises(ValueError):
        analyze(timer, "forward", mad_multiplier=0)
    with pytest.raises(KeyError):
        analyze(timer, "nonexistent")
    with pytest.raises(ValueError):
        straggler_machines(analyze(timer, "forward"), gpus_per_node=0)


def test_render_ascii_structure():
    timer = make_timer(n_ranks=64, slow_ranks={10})
    text = render_ascii(analyze(timer, "forward"), width=32)
    lines = text.splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("|") and lines[1].endswith("|")
    assert "outliers: 1" in lines[2]
    with pytest.raises(ValueError):
        render_ascii(analyze(timer, "forward"), width=0)


def test_peak_mfu_consistency_improves():
    before, after = consistent_peak_mfu([0.55, 0.60, 0.52], [0.60, 0.598, 0.601])
    assert after < before
    with pytest.raises(ValueError):
        consistent_peak_mfu([], [0.6])


def test_heatmap_decisions_driven_by_gpu_compute_time():
    """Straggler flags from real Gpu.compute_time prices, healthy path exact.

    Regression for Gpu.compute_time dividing the *entire* gemm_time (launch
    overhead included) by speed_factor: healthy ranks (speed_factor=1.0)
    must price exactly spec.gemm_time, so heatmap decisions match a fleet
    priced straight from the spec, and only genuinely derated ranks flag.
    """
    from repro.hardware import AMPERE, Gpu

    kernel_flops = 5e11
    slow = {3, 17}
    timer = TraceRecorder()
    for rank in range(32):
        gpu = Gpu(spec=AMPERE, index=rank)
        if rank in slow:
            gpu.degrade(0.9)
        latency = gpu.compute_time(kernel_flops)
        if rank not in slow:
            # speed_factor == 1.0 is a bit-for-bit no-op on the price.
            assert latency == AMPERE.gemm_time(kernel_flops)
        for step in range(4):
            timer.record("forward", rank, 0.0, latency, step=step)
    result = analyze(timer, "forward")
    assert set(result.outliers) == slow
    assert straggler_machines(result, gpus_per_node=8) == [0, 2]
