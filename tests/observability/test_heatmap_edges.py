"""Edge-case coverage for the straggler heat map (§5.1 satellite)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability import analyze, render_ascii, straggler_machines
from repro.sim import TraceRecorder


def _timer(latencies_by_rank):
    timer = TraceRecorder()
    for rank, latency in enumerate(latencies_by_rank):
        timer.record("forward", rank, 0.0, latency, step=0)
    return timer


@settings(max_examples=50, deadline=None)
@given(
    latency=st.floats(min_value=1e-4, max_value=10.0),
    n_ranks=st.integers(min_value=1, max_value=64),
)
def test_uniform_fleet_flags_nothing(latency, n_ranks):
    # Property: identical latencies can never produce an outlier, for
    # any fleet size and any latency magnitude.
    result = analyze(_timer([latency] * n_ranks))
    assert result.outliers == ()
    assert result.outlier_fraction == 0.0
    assert result.median == pytest.approx(latency)


def test_single_rank_fleet():
    result = analyze(_timer([0.5]))
    assert result.ranks == (0,)
    assert result.outliers == ()
    assert straggler_machines(result) == []


def test_render_ascii_all_equal_latencies_span_zero():
    # max == min would divide by zero without the span guard.
    result = analyze(_timer([0.25] * 16))
    art = render_ascii(result)
    assert "outliers: 0 ranks" in art
    assert "|" in art


def test_render_ascii_single_rank():
    art = render_ascii(analyze(_timer([1.0])), width=8)
    assert art.count("\n") == 2


def test_straggler_machines_empty_outliers():
    result = analyze(_timer([1.0] * 8))
    assert result.outliers == ()
    assert straggler_machines(result, gpus_per_node=4) == []


def test_straggler_machines_collapses_ranks_to_nodes():
    latencies = [1.0] * 16
    latencies[8] = latencies[9] = 1.5  # both on node 1 (gpus_per_node=8)
    result = analyze(_timer(latencies))
    assert set(result.outliers) == {8, 9}
    assert straggler_machines(result, gpus_per_node=8) == [1]


def test_near_uniform_noise_stays_below_the_relative_guard():
    # 1% jitter: MAD flags nothing thanks to min_relative_excess.
    latencies = [1.0 + 0.01 * (i % 3 - 1) for i in range(32)]
    result = analyze(_timer(latencies))
    assert result.outliers == ()
