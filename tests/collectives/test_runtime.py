"""Tests for routed ring collectives on an ideal-transport fabric.

``FabricCostModel(fabric, cc_efficiency=1.0, penalty=None)`` prices a
ring over the CLOS links with ideal transport and no PFC derating, so on
a clean pod it must agree with the alpha-beta closed forms.
"""

from typing import List, Optional, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives import FabricCostModel, ring_all_gather
from repro.collectives.fabric import concurrent_rings_time
from repro.core.units import Gbps
from repro.network import ClosFabric
from repro.network.flow import Flow, max_min_fair_rates


@pytest.fixture(scope="module")
def fabric():
    return ClosFabric(n_nodes=128)


def price(fabric, kind, size, nodes, rail=0):
    model = FabricCostModel(fabric, rail=rail, cc_efficiency=1.0, penalty=None)
    return model.collective_cost(kind, size, nodes)


def test_all_gather_matches_alpha_beta_on_clean_fabric(fabric):
    # 4 nodes in one pod: each pair path is a dedicated 200G NIC chain.
    size = 4e9
    run = price(fabric, "all_gather", size, [0, 1, 2, 3])
    analytic = ring_all_gather(size, 4, 200 * Gbps)
    assert run.time == pytest.approx(analytic, rel=0.05)
    assert run.n_steps == 3


def test_all_reduce_is_twice_all_gather(fabric):
    ag = price(fabric, "all_gather", 2e9, [0, 1, 2, 3])
    ar = price(fabric, "all_reduce", 2e9, [0, 1, 2, 3])
    assert ar.time == pytest.approx(2 * ag.time, rel=1e-6)
    assert ar.n_steps == 6


def test_single_rank_or_empty_tensor_free(fabric):
    assert price(fabric, "all_gather", 1e9, [5]).time == 0.0
    assert price(fabric, "all_reduce", 0.0, [0, 1, 2, 3]).time == 0.0


def test_cross_pod_ring_slower_than_intra_pod(fabric):
    intra = price(fabric, "all_gather", 4e9, [0, 1, 2, 3])
    cross = price(fabric, "all_gather", 4e9, [0, 1, 64, 65])
    # Cross-pod hops add latency per step; bandwidth may also be shared.
    assert cross.time >= intra.time


def test_degraded_link_slows_the_whole_ring(fabric):
    size = 4e9
    clean = price(fabric, "all_gather", size, [0, 1, 2, 3])
    # Degrade node 2's rail-0 uplink to its ToR.
    (link,) = fabric.parallel_links[("node2.nic0", "tor0.0")]
    original = fabric.links.bandwidth[link]
    try:
        fabric.links.bandwidth[link] = original / 4
        degraded = price(fabric, "all_gather", size, [0, 1, 2, 3])
    finally:
        fabric.links.bandwidth[link] = original
    assert degraded.time > 2 * clean.time
    assert degraded.step.slowest_flow == 2  # the pair leaving node 2


def test_unsupported_collective_rejected(fabric):
    with pytest.raises(ValueError):
        price(fabric, "all_to_all", 1e9, [0, 1])
    with pytest.raises(ValueError):
        price(fabric, "all_gather", -1.0, [0, 1])
    with pytest.raises(ValueError):
        price(fabric, "all_gather", 1e9, [])


def test_concurrent_rings_on_distinct_rails_dont_contend(fabric):
    ring = [0, 1, 2, 3]
    alone = concurrent_rings_time(fabric, [ring], size=4e9, rails=[0])
    together = concurrent_rings_time(fabric, [ring, ring], size=4e9, rails=[0, 1])
    # Multi-rail: the second ring rides its own NICs and ToR.
    assert together == pytest.approx(alone, rel=1e-6)


def test_concurrent_rings_on_same_rail_contend(fabric):
    ring = [0, 1, 2, 3]
    alone = concurrent_rings_time(fabric, [ring], size=4e9, rails=[0])
    contended = concurrent_rings_time(fabric, [ring, ring], size=4e9, rails=[0, 0])
    assert contended > 1.5 * alone  # sharing the same NIC links


def test_concurrent_rings_validation(fabric):
    with pytest.raises(ValueError):
        concurrent_rings_time(fabric, [], size=1e9)
    with pytest.raises(ValueError):
        concurrent_rings_time(fabric, [[0, 1]], size=-1.0)
    assert concurrent_rings_time(fabric, [[3, 3, 3]], size=1e9) == 0.0


# -- concurrent_rings_time against its closed-form oracle ---------------------


def reference_rings_time(
    fabric: ClosFabric,
    rings: List[Sequence[int]],
    size: float,
    rails: Optional[List[int]] = None,
) -> float:
    """The slowest transfer's ``segment / rate + path delay``, spelled out."""
    rails = rails if rails is not None else [i % fabric.rails for i in range(len(rings))]
    flows: List[Flow] = []
    fid = 0
    for ring, rail in zip(rings, rails):
        n = len(ring)
        for i in range(n):
            src, dst = ring[i], ring[(i + 1) % n]
            if src == dst:
                continue
            flows.append(Flow(flow_id=fid, path=fabric.path(src, dst, rail, flow_id=fid)))
            fid += 1
    if not flows:
        return 0.0
    max_min_fair_rates(flows, fabric.links)
    segment = size / max(len(r) for r in rings)
    return max(segment / f.rate + fabric.links.delay(f.path) for f in flows)


# One multi-pod fabric with default ECMP fan-out, one small fabric whose
# cross-pod rings hash onto a single spine uplink per aggregation switch.
FABRICS = (
    ClosFabric(n_nodes=128),
    ClosFabric(n_nodes=8, nodes_per_pod=4, n_spines=4, agg_uplinks_per_spine=1),
)


@st.composite
def ring_sets(draw):
    fabric = FABRICS[draw(st.integers(0, len(FABRICS) - 1))]
    node = st.integers(0, fabric.n_nodes - 1)
    rings = draw(st.lists(st.lists(node, min_size=1, max_size=8), min_size=1, max_size=4))
    rails = draw(
        st.none() | st.lists(st.integers(0, fabric.rails - 1), min_size=len(rings), max_size=len(rings))
    )
    size = draw(st.just(0.0) | st.floats(min_value=1.0, max_value=1e10))
    return fabric, rings, rails, size


@settings(max_examples=150, deadline=None)
@given(case=ring_sets())
def test_concurrent_rings_time_matches_reference(case):
    fabric, rings, rails, size = case
    assert concurrent_rings_time(fabric, rings, size, rails=rails) == reference_rings_time(
        fabric, rings, size, rails=rails
    )
