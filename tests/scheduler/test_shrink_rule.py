"""The scheduler's DP-shrink rule against the elastic re-planner it mirrors.

``ClusterScheduler._best_dp`` computes the shrink with integer
arithmetic; the oracle walks every shrunken plan and asks a structural
:class:`~repro.fault.elastic.ElasticReplanner` for each one that packs
onto whole hosts, as the scheduler once did.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.fault.elastic import ElasticReplanner
from repro.hardware.cluster import Cluster
from repro.network.topology import Topology
from repro.parallel.plan import ParallelPlan, plan_for_gpus
from repro.parallel.tuner import iter_shrink_dp_plans
from repro.scheduler import ClusterScheduler, JobSpec, JobStatus

SCHEDULER = ClusterScheduler(
    cluster=Cluster.build(n_nodes=2, n_spares=0),
    topology=Topology(n_nodes=2, nodes_per_rack=1, nodes_per_pod=2),
    jobs=(JobSpec(name="probe", plan=plan_for_gpus(16, tp=8, pp=1)),),
    rng=np.random.default_rng(0),
)


def reference_best_dp(spec: JobSpec, n_nodes: int) -> int:
    gpus = n_nodes * spec.gpus_per_node
    if gpus >= spec.plan.world_size:
        return spec.plan.dp
    if gpus < 1:
        return 0
    for candidate in iter_shrink_dp_plans(spec.plan, gpus):
        if candidate.world_size % spec.gpus_per_node:
            continue
        decision = ElasticReplanner().replan(spec.plan, candidate.world_size)
        if decision is not None:
            return decision.new_plan.dp
    return 0


@st.composite
def shrink_cases(draw):
    plan = ParallelPlan(
        dp=draw(st.integers(1, 64)),
        tp=draw(st.sampled_from([1, 2, 4, 8])),
        pp=draw(st.integers(1, 16)),
    )
    gpus_per_node = draw(st.sampled_from([1, 2, 4, 8]))
    assume(plan.world_size % gpus_per_node == 0)
    spec = JobSpec(name="job", plan=plan, gpus_per_node=gpus_per_node)
    n_nodes = draw(st.integers(0, spec.n_nodes + 2))
    return spec, n_nodes


@settings(max_examples=300, deadline=None)
@given(case=shrink_cases())
def test_best_dp_matches_elastic_replanner(case):
    spec, n_nodes = case
    status = JobStatus(spec=spec, plan=spec.plan)
    assert SCHEDULER._best_dp(status, n_nodes) == reference_best_dp(spec, n_nodes)
