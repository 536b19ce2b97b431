"""Topology-aware placement and the cross-job contention factor."""

import pytest

from repro.network.topology import Topology
from repro.scheduler.placement import PlacementError, PlacementMap


def make_map(n_nodes=16, nodes_per_rack=4, nodes_per_pod=8):
    return PlacementMap(
        topology=Topology(
            n_nodes=n_nodes, nodes_per_rack=nodes_per_rack, nodes_per_pod=nodes_per_pod
        )
    )


def test_place_prefers_fewest_pods_then_racks():
    pm = make_map()
    assert pm.place("a", 4) == [0, 1, 2, 3]  # one rack, one pod
    assert pm.place("b", 8) == [8, 9, 10, 11, 12, 13, 14, 15]  # whole pod 1
    # The 4-node hole left in pod 0 is reused before any span would.
    assert pm.place("c", 4) == [4, 5, 6, 7]


def test_place_is_deterministic_and_capacity_checked():
    first = make_map().place("a", 6)
    second = make_map().place("a", 6)
    assert first == second
    pm = make_map()
    pm.place("a", 15)
    with pytest.raises(PlacementError):
        pm.place("b", 2)


def test_kill_revive_and_drop_dead_lifecycle():
    pm = make_map()
    pm.place("a", 4)
    pm.kill(1)
    assert pm.nodes_of("a") == [0, 2, 3]
    assert 1 not in pm.free_indices()
    pm.revive(1)
    assert pm.nodes_of("a") == [0, 1, 2, 3]
    pm.kill(2)
    pm.drop_dead("a", [2])
    assert pm.nodes_of("a") == [0, 1, 3]
    assert 2 not in pm.free_indices()  # dead until repaired
    with pytest.raises(PlacementError):
        pm.drop_dead("a", [3])  # not dead
    with pytest.raises(PlacementError):
        pm.assign("b", [2])  # dead nodes cannot be assigned


def test_jobs_hit_batches_claims_in_name_order():
    pm = make_map()
    pm.place("zeta", 4)
    pm.place("alpha", 4)
    pm.kill(0)  # already dead: not claimable again
    hit = pm.jobs_hit([0, 1, 4, 5, 9])
    assert list(hit) == ["alpha", "zeta"]
    assert hit["alpha"] == [4, 5]
    assert hit["zeta"] == [1]


def test_contention_factor_only_when_sharing_a_pod():
    pm = make_map()
    pm.place("a", 4)
    pm.place("b", 4)  # lands on 4..7: same pod as a
    pm.place("c", 8)  # pod 1 alone
    assert pm.contention_factor("c") == 1.0
    shared = pm.contention_factor("a")
    assert 0.0 < shared <= 1.0
    # Both tenants of pod 0 see the same squeeze.
    assert pm.contention_factor("b") == pytest.approx(shared)


def test_contention_factor_monotone_in_neighbours():
    pm = make_map()
    pm.place("a", 4)
    base = pm.contention_factor("a", uplinks=4)
    pm.assign("b", [4, 5])
    light = pm.contention_factor("a", uplinks=4)
    pm.assign("b", [6, 7])
    heavy = pm.contention_factor("a", uplinks=4)
    assert base == 1.0
    assert heavy <= light <= base
