"""Correlated fault domains: topology mapping and injector determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fault import FaultInjector
from repro.fault.domains import (
    DEFAULT_DOMAINS,
    LEAF_LINK_FAULT,
    RACK_POWER_FAULT,
    TOR_SWITCH_FAULT,
    CorrelatedFaultInjector,
    FaultDomain,
)
from repro.fault.faults import Manifestation
from repro.network.topology import ClosFabric, Topology


# -- topology mapping ---------------------------------------------------------


def test_domain_topology_rack_and_pod_membership():
    topo = Topology(n_nodes=100, nodes_per_rack=8, nodes_per_pod=32)
    assert topo.n_racks == 13  # last rack is partial
    assert topo.n_pods == 4
    assert topo.rack_of(0) == 0 and topo.rack_of(15) == 1
    assert topo.pod_of(31) == 0 and topo.pod_of(32) == 1
    assert topo.nodes_in_rack(0) == list(range(8))
    assert topo.nodes_in_rack(12) == [96, 97, 98, 99]  # clipped to the fleet
    assert topo.nodes_in_pod(3) == list(range(96, 100))


def test_domain_topology_validation():
    with pytest.raises(ValueError):
        Topology(n_nodes=0)
    with pytest.raises(ValueError):
        Topology(n_nodes=8, nodes_per_rack=3, nodes_per_pod=8)  # racks must tile pods
    topo = Topology(n_nodes=64)
    with pytest.raises(ValueError):
        topo.rack_of(64)
    with pytest.raises(ValueError):
        topo.nodes_in_pod(99)


@settings(max_examples=60, deadline=None)
@given(
    n_nodes=st.integers(1, 200),
    nodes_per_pod=st.integers(1, 70),
    pairs=st.lists(st.tuples(st.integers(0, 199), st.integers(0, 199)), max_size=20),
)
def test_topology_pods_agree_with_fabric_hops(n_nodes, nodes_per_pod, pairs):
    # One rail and one uplink per layer: hop counts depend on pods alone.
    fabric = ClosFabric(
        n_nodes=n_nodes, nodes_per_pod=nodes_per_pod, rails=1, aggs_per_pod=1,
        n_spines=1, tor_uplinks_per_agg=1, agg_uplinks_per_spine=1,
    )
    topo = fabric.topology
    assert topo == Topology.for_pods(n_nodes, nodes_per_pod)
    for a, b in pairs:
        a, b = a % n_nodes, b % n_nodes
        if a != b:
            assert (fabric.hops(a, b) == 2) == (topo.pod_of(a) == topo.pod_of(b))
    pods = [topo.nodes_in_pod(pod) for pod in range(topo.n_pods)]
    assert [node for pod in pods for node in pod] == list(range(n_nodes))
    assert all(topo.pod_of(node) == pod for pod, nodes in enumerate(pods) for node in nodes)


def test_domain_kinds_declare_degraded_semantics():
    assert RACK_POWER_FAULT.needs_replacement
    assert not TOR_SWITCH_FAULT.needs_replacement
    assert TOR_SWITCH_FAULT.manifestation is Manifestation.HANG
    assert TOR_SWITCH_FAULT.repair_time > 0
    assert LEAF_LINK_FAULT.manifestation is Manifestation.SILENT
    assert LEAF_LINK_FAULT.degraded_throughput < 1.0


# -- correlated sampling ------------------------------------------------------


def make_injector(seed, rate_multiplier=50.0):
    topo = Topology(n_nodes=64, nodes_per_rack=4, nodes_per_pod=16)
    return CorrelatedFaultInjector(
        n_nodes=64,
        topology=topo,
        rng=np.random.default_rng(seed),
        rate_multiplier=rate_multiplier,
    )


def test_correlated_injector_emits_domain_events_with_blast_radius():
    events = make_injector(1).sample(horizon=14 * 86400.0)
    domain_events = [e for e in events if e.domain is not None]
    assert domain_events, "expected at least one correlated event at these rates"
    for event in domain_events:
        assert event.blast_radius > 1
        assert event.node_index == event.affected_nodes[0]
        assert all(0 <= n < 64 for n in event.affected_nodes)
        if event.kind is RACK_POWER_FAULT:
            assert event.blast_radius <= 4
        else:
            assert event.blast_radius <= 16


def test_correlated_injector_time_ordered_and_seeded_deterministic():
    a = make_injector(7).sample(horizon=7 * 86400.0)
    b = make_injector(7).sample(horizon=7 * 86400.0)
    assert [(e.time, e.kind.name, e.affected_nodes) for e in a] == [
        (e.time, e.kind.name, e.affected_nodes) for e in b
    ]
    assert all(x.time <= y.time for x, y in zip(a, a[1:]))


def test_correlated_rate_exceeds_base_rate():
    base = FaultInjector(n_nodes=64, rng=np.random.default_rng(0))
    correlated = make_injector(0, rate_multiplier=1.0)
    assert correlated.cluster_rate_per_second() > base.cluster_rate_per_second()


def test_single_node_events_still_present():
    events = make_injector(3).sample(horizon=14 * 86400.0)
    singles = [e for e in events if e.domain is None]
    assert singles
    assert all(e.blast_radius == 1 for e in singles)


def test_injector_topology_size_mismatch_rejected():
    with pytest.raises(ValueError):
        CorrelatedFaultInjector(n_nodes=32, topology=Topology(n_nodes=64))


def test_fault_domain_validation():
    with pytest.raises(ValueError):
        FaultDomain("bad", RACK_POWER_FAULT, -1.0, scope="rack")
    with pytest.raises(ValueError):
        FaultDomain("bad", RACK_POWER_FAULT, 1.0, scope="row")
    assert all(d.scope in ("rack", "pod") for d in DEFAULT_DOMAINS)
