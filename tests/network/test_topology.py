"""Tests for the CLOS fabric, links and switches."""

import pytest

from repro.core.units import Gbps
from repro.network import ClosFabric, LinkTable, TOMAHAWK4, agg_role, tor_role


def make_fabric(n_nodes=128, **kw):
    return ClosFabric(n_nodes=n_nodes, **kw)


def test_tomahawk4_datasheet():
    assert TOMAHAWK4.n_ports == 64
    assert TOMAHAWK4.port_rate == pytest.approx(400 * Gbps)
    assert TOMAHAWK4.total_bandwidth == pytest.approx(64 * 400 * Gbps)


def test_tor_port_splitting():
    split = tor_role(split_downlinks=True)
    unsplit = tor_role(split_downlinks=False)
    assert split.downlink_ports == 64
    assert split.downlink_rate == pytest.approx(200 * Gbps)
    assert split.uplink_rate == pytest.approx(400 * Gbps)
    assert unsplit.downlink_ports == 32
    assert unsplit.downlink_rate == pytest.approx(400 * Gbps)
    # 1:1 downlink:uplink bandwidth at the ToR either way.
    assert split.downlink_ports * split.downlink_rate == pytest.approx(
        split.uplink_ports * split.uplink_rate
    )


def test_agg_role_symmetric():
    role = agg_role()
    assert role.downlink_ports == role.uplink_ports == 32


def test_fabric_pods_and_tors():
    fabric = make_fabric(n_nodes=128, nodes_per_pod=64, rails=8)
    assert fabric.topology.n_pods == 2
    assert fabric.topology.pod_of(0) == 0
    assert fabric.topology.pod_of(64) == 1
    tors = [s for s in fabric.switches.values() if s.layer == "tor"]
    assert len(tors) == 2 * 8


def test_nic_links_at_200g():
    fabric = make_fabric(n_nodes=64)
    (link,) = fabric.parallel_links[("node0.nic0", "tor0.0")]
    assert fabric.links.bandwidth[link] == pytest.approx(200 * Gbps)


def test_same_tor_within_pod():
    topology = make_fabric(n_nodes=128).topology
    assert topology.pod_of(0) == topology.pod_of(63)
    assert topology.pod_of(0) != topology.pod_of(64)


def test_hop_counts():
    fabric = make_fabric(n_nodes=128)
    assert fabric.hops(5, 5) == 0
    assert fabric.hops(0, 63) == 2  # same ToR set: nic->tor->nic
    assert fabric.hops(0, 64) == 6  # cross-pod through the spine


def test_intra_pod_path_structure():
    fabric = make_fabric(n_nodes=128)
    links = fabric.links
    path = fabric.path(0, 1, rail=3, flow_id=42)
    assert len(path) == 2
    assert links.src[path[0]] == "node0.nic3"
    assert links.dst[path[0]] == "tor0.3"
    assert links.dst[path[1]] == "node1.nic3"


def test_cross_pod_path_structure():
    fabric = make_fabric(n_nodes=128)
    src, dst = fabric.links.src, fabric.links.dst
    path = fabric.path(0, 100, rail=0, flow_id=7)
    assert len(path) == 6
    assert src[path[0]] == "node0.nic0"
    assert src[path[1]] == "tor0.0"
    assert src[path[2]].startswith("agg0.")
    assert src[path[3]].startswith("spine")
    assert src[path[4]].startswith("agg1.")
    assert dst[path[5]] == "node100.nic0"


def test_path_is_deterministic_per_flow():
    fabric = make_fabric(n_nodes=128)
    p1 = fabric.path(0, 100, rail=0, flow_id=7)
    p2 = fabric.path(0, 100, rail=0, flow_id=7)
    assert p1 == p2


def test_different_flows_spread_over_uplinks():
    fabric = make_fabric(n_nodes=128)
    chosen = {fabric.links.dst[fabric.path(0, 100, rail=0, flow_id=f)[2]] for f in range(64)}
    assert len(chosen) > 1  # multiple spines used


def test_path_validation():
    fabric = make_fabric(n_nodes=64)
    with pytest.raises(ValueError):
        fabric.path(0, 64, rail=0)
    with pytest.raises(ValueError):
        fabric.path(0, 1, rail=8)
    assert fabric.path(3, 3, rail=0) == ()


def test_bisection_bandwidth_positive():
    fabric = make_fabric(n_nodes=128)
    assert fabric.bisection_bandwidth() > 0


def test_link_validation():
    with pytest.raises(ValueError, match="a->b must have positive bandwidth"):
        LinkTable(["a"], ["b"], 0)
    with pytest.raises(ValueError, match="c->d has negative latency"):
        LinkTable(["a", "c"], ["b", "d"], 1.0, latency=[1e-6, -1])
    with pytest.raises(ValueError):
        LinkTable(["a"], ["b", "c"], 1.0)
    links = LinkTable(["a"], ["b"], 1e9)
    links.carry([0, 0], 100.0)  # a path crossing the link twice
    assert links.carried[0] == 200.0
    with pytest.raises(ValueError):
        links.carry([0], -1.0)


def test_duplex_link_state():
    # Parallel link k of a -> b and link k of b -> a are the two
    # directions of one cable; both are plain ids into the fabric table.
    fabric = make_fabric(n_nodes=64)
    links = fabric.links
    forward = fabric.parallel_links[("tor0.0", "agg0.0")][1]
    reverse = fabric.parallel_links[("agg0.0", "tor0.0")][1]
    assert (links.src[forward], links.dst[forward]) == ("tor0.0", "agg0.0")
    assert (links.src[reverse], links.dst[reverse]) == ("agg0.0", "tor0.0")
    clean = fabric.fingerprint()
    links.up[[forward, reverse]] = False
    assert fabric.degraded() and not links.up[forward] and not links.up[reverse]
    links.up[[forward, reverse]] = True
    assert not fabric.degraded() and fabric.fingerprint() == clean


def test_fabric_validation():
    with pytest.raises(ValueError):
        ClosFabric(n_nodes=0)
