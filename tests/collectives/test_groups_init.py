"""Tests for fabric-aware group comm and §3.5 initialization."""

import pytest

from repro.collectives import (
    REDIS_STORE,
    TCP_STORE,
    build_comm_model,
    count_groups,
    group_init_time,
    init_time_seconds,
    paper_sequence,
    simulated_barrier_time,
)
from repro.parallel import ParallelPlan, plan_for_gpus


PLAN = ParallelPlan(dp=4, tp=8, pp=8, vpp=6)


def test_dp_ring_bandwidth_near_nic_rate():
    model = build_comm_model(PLAN)
    bw = model.ring_bandwidth(PLAN.dp_group(0))
    # 200 Gbps NIC derated by CC efficiency only (same pod).
    assert 20e9 < bw < 25e9


def test_cross_pod_ring_slower():
    big = plan_for_gpus(12288, tp=8, pp=8, vpp=6)  # dp=192: crosses pods
    small_model = build_comm_model(PLAN)
    big_model = build_comm_model(big)
    assert big_model.ring_bandwidth(big.dp_group(0)) < small_model.ring_bandwidth(
        PLAN.dp_group(0)
    )


def test_dp_collective_time_kinds():
    model = build_comm_model(PLAN)
    size = 5e9
    ag = model.dp_collective_time("all_gather", size)
    rs = model.dp_collective_time("reduce_scatter", size)
    ar = model.dp_collective_time("all_reduce", size)
    assert ag == pytest.approx(rs)
    assert ar == pytest.approx(ag + rs, rel=1e-6)
    with pytest.raises(ValueError):
        model.dp_collective_time("gather", size)


def test_dp_collective_free_for_dp1():
    plan = ParallelPlan(dp=1, tp=8, pp=8)
    model = build_comm_model(plan)
    assert model.dp_collective_time("all_gather", 1e9, ranks=plan.dp_group(0)) == 0.0


def test_pp_p2p_time_scales_with_size():
    model = build_comm_model(PLAN)
    t1 = model.pp_p2p_time(50e6)
    t2 = model.pp_p2p_time(100e6)
    assert t2 > t1
    # 50 MB over ~22.5 GB/s: ~2.2 ms.
    assert 1e-3 < t1 < 4e-3


def test_same_node_pair_uses_nvlink():
    model = build_comm_model(ParallelPlan(dp=2, tp=2, pp=2))
    # Ranks 0 and 1 share a node: NVLink bandwidth applies.
    assert model._pair_bandwidth(0, 1) > 100e9


def test_cc_efficiency_validation():
    with pytest.raises(ValueError):
        build_comm_model(PLAN, cc_efficiency=0.0)


def test_describe_contains_rates():
    assert "Gbps" in build_comm_model(PLAN).describe()


# -- §3.5 initialization -------------------------------------------------------


def test_count_groups_scales_with_world():
    small = plan_for_gpus(256, tp=8, pp=8)
    large = plan_for_gpus(2048, tp=8, pp=8)
    assert count_groups(large) > count_groups(small)


def test_paper_init_sequence_2048():
    plan = plan_for_gpus(2048, tp=8, pp=8, vpp=6)
    seq = paper_sequence(plan)
    # Paper: 1047 s -> 361 s -> < 5 s.
    assert seq["tcpstore_naive"] == pytest.approx(1047, rel=0.10)
    assert seq["redis_naive"] == pytest.approx(361, rel=0.10)
    assert seq["redis_ordered"] < 5.0


@pytest.mark.parametrize("n_gpus", [256, 2048, 12288])
def test_paper_sequence_strictly_ordered(n_gpus):
    # Each optimization must strictly improve on the previous at every
    # scale, not just the paper's 2048-GPU calibration point.
    seq = paper_sequence(plan_for_gpus(n_gpus, tp=8, pp=8, vpp=6))
    assert seq["tcpstore_naive"] > seq["redis_naive"] > seq["redis_ordered"]


def test_ordered_rendezvous_uses_named_pipelining_constant():
    from repro.collectives.init import ORDERED_RENDEZVOUS_PIPELINING

    plan = plan_for_gpus(2048, tp=8, pp=8, vpp=6)
    naive = group_init_time(plan, REDIS_STORE, ordered=False)
    ordered = group_init_time(plan, REDIS_STORE, ordered=True)
    assert ordered.rendezvous_time == pytest.approx(
        naive.rendezvous_time / ORDERED_RENDEZVOUS_PIPELINING
    )


def test_round_half_up_group_sizing():
    from repro.collectives.init import _round_half_up

    assert _round_half_up(12.29) == 12
    assert _round_half_up(12.5) == 13
    assert _round_half_up(12.51) == 13
    assert _round_half_up(12.0) == 12


def test_init_under_30s_at_10k_gpus():
    plan = plan_for_gpus(12288, tp=8, pp=8, vpp=6)
    assert init_time_seconds(plan, "redis", ordered=True) < 30.0


def test_ordered_init_scales_linearly():
    t1 = init_time_seconds(plan_for_gpus(1024, tp=8, pp=8), "redis", ordered=True)
    t4 = init_time_seconds(plan_for_gpus(4096, tp=8, pp=8), "redis", ordered=True)
    assert 2.0 < t4 / t1 < 6.0  # ~linear, not quadratic


def test_naive_init_scales_quadratically():
    t1 = init_time_seconds(plan_for_gpus(1024, tp=8, pp=8), "tcpstore")
    t4 = init_time_seconds(plan_for_gpus(4096, tp=8, pp=8), "tcpstore")
    assert t4 / t1 > 10.0


def test_init_breakdown_components():
    b = group_init_time(plan_for_gpus(2048, tp=8, pp=8), TCP_STORE)
    assert b.total == pytest.approx(
        b.barrier_time + b.rendezvous_time + b.nccl_bootstrap_time
    )
    assert b.barrier_count == 3 * b.n_groups


def test_unknown_store_rejected():
    with pytest.raises(ValueError):
        init_time_seconds(PLAN, "etcd")


def test_store_validation():
    with pytest.raises(ValueError):
        TCP_STORE.barrier_time(0)
    with pytest.raises(ValueError):
        REDIS_STORE.rendezvous_time(0)


# -- simulated convoy demonstration -------------------------------------------


def test_blocking_store_convoy_costs_about_3x():
    # Polls convoy behind SETs on the single-threaded store: each barrier
    # costs ~3x its async equivalent — the paper's 1047 s -> 361 s ratio.
    blocking_64 = simulated_barrier_time(64, op_time=1e-4, blocking=True)
    async_64 = simulated_barrier_time(64, op_time=1e-4, blocking=False)
    ratio = blocking_64 / async_64
    assert 2.0 < ratio < 4.5


def test_simulated_barriers_scale_linearly_per_barrier():
    # One barrier is O(n) on either store; the O(n^2) of §3.5 comes from
    # running O(n) barriers (one per group), modelled in init.py.
    for blocking in (True, False):
        t64 = simulated_barrier_time(64, op_time=1e-4, blocking=blocking)
        t128 = simulated_barrier_time(128, op_time=1e-4, blocking=blocking)
        assert 1.5 < t128 / t64 < 3.0


def test_simulated_barrier_validation():
    with pytest.raises(ValueError):
        simulated_barrier_time(0, 1e-4, True)
