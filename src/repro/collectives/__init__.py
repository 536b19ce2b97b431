"""Collective communication: cost primitives, fabric-aware groups, init."""

from .fabric import (
    DEFAULT_PFC_PENALTY,
    FabricCollectiveCost,
    FabricCostModel,
    PfcPenaltyModel,
    RoutedStepCost,
    fabric_collective_cost,
    routed_step_cost,
)
from .groups import DEFAULT_CC_EFFICIENCY, GroupCommModel, build_comm_model
from .hierarchical import HierarchicalCost, flat_all_reduce, hierarchical_all_reduce, hierarchical_speedup
from .init import (
    InitBreakdown,
    count_groups,
    group_init_time,
    init_time_seconds,
    paper_sequence,
)
from .kvstore import (
    REDIS_STORE,
    STORE_CATALOG,
    TCP_STORE,
    SimulatedKvServer,
    StoreModel,
    simulated_barrier_time,
)
from .primitives import (
    COST_BACKENDS,
    INTER_NODE_LATENCY,
    all_to_all,
    point_to_point,
    ring_all_gather,
    ring_all_reduce,
    ring_reduce_scatter,
    tree_broadcast,
    validate_backend,
)

__all__ = [
    "COST_BACKENDS",
    "DEFAULT_CC_EFFICIENCY",
    "DEFAULT_PFC_PENALTY",
    "FabricCollectiveCost",
    "FabricCostModel",
    "GroupCommModel",
    "INTER_NODE_LATENCY",
    "PfcPenaltyModel",
    "RoutedStepCost",
    "fabric_collective_cost",
    "routed_step_cost",
    "validate_backend",
    "HierarchicalCost",
    "flat_all_reduce",
    "hierarchical_all_reduce",
    "hierarchical_speedup",
    "InitBreakdown",
    "REDIS_STORE",
    "STORE_CATALOG",
    "SimulatedKvServer",
    "StoreModel",
    "TCP_STORE",
    "all_to_all",
    "build_comm_model",
    "count_groups",
    "group_init_time",
    "init_time_seconds",
    "paper_sequence",
    "point_to_point",
    "ring_all_gather",
    "ring_all_reduce",
    "ring_reduce_scatter",
    "simulated_barrier_time",
    "tree_broadcast",
]
