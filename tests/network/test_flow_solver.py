"""Tests for the vectorized max-min solver against its reference oracle."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.network import Flow, LinkTable, max_min_fair_rates, transfer_time
from repro.network.flow import max_min_fair_rates_reference


def _links(bandwidths):
    n = len(bandwidths)
    return LinkTable([f"s{i}" for i in range(n)], [f"d{i}" for i in range(n)], bandwidths)


# -- vectorized vs reference ---------------------------------------------------


@st.composite
def flow_sets(draw):
    """Random (links, flow specs): shared paths, mixed demands, empty paths."""
    bandwidths = draw(
        st.lists(st.floats(min_value=1e8, max_value=4e11), min_size=1, max_size=8)
    )
    n_links = len(bandwidths)
    n_flows = draw(st.integers(min_value=1, max_value=12))
    specs = []
    for _ in range(n_flows):
        path = draw(
            st.lists(st.integers(min_value=0, max_value=n_links - 1), max_size=5)
        )
        demand = draw(
            st.one_of(st.just(float("inf")), st.floats(min_value=1e6, max_value=1e12))
        )
        specs.append((path, demand))
    return bandwidths, specs


def _build(specs):
    return [Flow(flow_id=i, path=path, demand=demand) for i, (path, demand) in enumerate(specs)]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(flow_sets())
def test_vectorized_matches_reference(flow_set):
    bandwidths, specs = flow_set
    links = _links(bandwidths)
    ref_flows = _build(specs)
    vec_flows = _build(specs)
    ref = max_min_fair_rates_reference(ref_flows, links)
    vec = max_min_fair_rates(vec_flows, links)
    assert set(ref) == set(vec)
    for fid, ref_rate in ref.items():
        assert vec[fid] == pytest.approx(ref_rate, rel=1e-9), (
            f"flow {fid}: vectorized {vec[fid]} vs reference {ref_rate}"
        )
    # Both solvers also store the rates on the flows themselves.
    for rf, vf in zip(ref_flows, vec_flows):
        assert vf.rate == pytest.approx(rf.rate, rel=1e-9)
        assert rf.demand == float("inf") or rf.rate <= rf.demand * (1 + 1e-9)


def test_multi_bottleneck_levels_match():
    # Three saturation levels: narrow (2), medium (6 shared by two),
    # wide (20) — the classic progressive-filling staircase.
    links = _links([2.0, 6.0, 20.0])
    narrow, medium, wide = 0, 1, 2
    specs = [
        [narrow, medium, wide],
        [medium, wide],
        [wide],
    ]
    ref = [Flow(flow_id=i, path=list(p)) for i, p in enumerate(specs)]
    vec = [Flow(flow_id=i, path=list(p)) for i, p in enumerate(specs)]
    r = max_min_fair_rates_reference(ref, links)
    v = max_min_fair_rates(vec, links)
    assert r == v
    assert v[0] == pytest.approx(2.0)
    assert v[1] == pytest.approx(4.0)
    assert v[2] == pytest.approx(14.0)


def test_repeated_link_in_path_counts_twice():
    # A path traversing the same link twice gets half its bandwidth —
    # in both the general water-fill and the single-flow closed form.
    links = _links([10.0])
    lone = [Flow(flow_id=0, path=[0, 0])]
    assert max_min_fair_rates(lone, links)[0] == pytest.approx(5.0)
    pair = [
        Flow(flow_id=0, path=[0, 0]),
        Flow(flow_id=1, path=[0]),
    ]
    ref = max_min_fair_rates_reference([Flow(f.flow_id, f.path) for f in pair], links)
    vec = max_min_fair_rates(pair, links)
    for fid in ref:
        assert vec[fid] == pytest.approx(ref[fid], rel=1e-9)


def test_empty_path_unbounded_demand_prices_latency_only():
    # Regression: a same-host flow with the default (infinite) demand
    # used to get rate 0.0, making transfer_time raise for healthy
    # local traffic.  It must price as latency-only instead.
    links = _links([1e9])
    flow = Flow(flow_id=0, path=[])
    for solve in (max_min_fair_rates, max_min_fair_rates_reference):
        flow.rate = 0.0
        solve([flow], links)
        assert flow.rate == float("inf")
        assert transfer_time(1e9, flow, links) == 0.0


def test_vectorized_raises_on_down_link():
    links = _links([1e9, 1e9])
    links.up[1] = False
    with pytest.raises(RuntimeError, match="s1->d1"):
        max_min_fair_rates([Flow(flow_id=0, path=[1])], links)
    with pytest.raises(RuntimeError, match="flow 1 routed over down link s1->d1"):
        max_min_fair_rates(
            [Flow(flow_id=0, path=[0]), Flow(flow_id=1, path=[0, 1])], links
        )
