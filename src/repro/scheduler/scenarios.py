"""Multi-tenant chaos: the scheduler's reference scenario and CI gate.

Two tenants share a small cluster whose spare pool is deliberately
undersized (one standby for rack-sized blast radii).  The placement
shares rack 1 between the tenants, so a single rack-PSU event injures
both jobs at once and forces the spare broker to arbitrate the last
spare.  The scenario runs the same seeded fault timeline under both
arbitration policies:

* ``priority`` — the arbitrating scheduler: priority-weighted grants,
  preemption when a high-priority tenant would stall, DP-shrink for the
  rest, retry-with-backoff regrows.
* ``fifo`` — the naive baseline: submission-order grants and a full
  provisioning stall for every shortfall.

:func:`multi_tenant_chaos` is the CI gate: per seed it checks that the
goodput timeline is monotone-consistent and byte-identical across
re-runs, that the spare ledger balances, that no job ever blocks
unboundedly on a spare, and that the arbitrating scheduler beats the
FIFO baseline on cluster-wide goodput — raising ``AssertionError`` /
``ValueError`` otherwise, so a plain invocation doubles as a pass/fail
gate.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..fault.domains import (
    LEAF_LINK_FAULT,
    RACK_POWER_FAULT,
    TOR_SWITCH_FAULT,
    CorrelatedFaultInjector,
    FaultDomain,
)
from ..fault.faults import CUDA_ERROR, NCCL_HANG, NIC_DEGRADED
from ..hardware.cluster import Cluster
from ..network.topology import Topology
from ..parallel.plan import plan_for_gpus
from .job import JobSpec
from .scheduler import ClusterScheduler, MultiJobReport, SchedulerConfig

# The testbed: 12 nodes in racks of 4 (pods of 8), one spare.  Both
# tenants run tp=8/pp=1/dp=6 (6 hosts each), so the placement fills the
# machine and rack 1 (nodes 4-7) straddles the two jobs.
TESTBED_NODES = 12
TESTBED_SPARES = 1
TESTBED_TOPOLOGY = Topology(n_nodes=TESTBED_NODES, nodes_per_pod=8, nodes_per_rack=4)

# Compressed fault rates: a few correlated events plus the odd node
# fault per simulated day, so every seed exercises the arbitration path
# within a short horizon.
CHAOS_DOMAINS = [
    FaultDomain("rack-psu", RACK_POWER_FAULT, 6.5e-2, scope="rack"),
    FaultDomain("tor-switch", TOR_SWITCH_FAULT, 2.5e-2, scope="pod"),
    FaultDomain("leaf-link", LEAF_LINK_FAULT, 2.5e-2, scope="pod"),
]
CHAOS_CATALOG = [CUDA_ERROR, NCCL_HANG, NIC_DEGRADED]
CHAOS_RATE_MULTIPLIER = 50.0


def testbed_jobs() -> Tuple[JobSpec, ...]:
    """The two tenants: a heavy high-priority job and a cheap one."""
    return (
        JobSpec(
            name="prod",
            plan=plan_for_gpus(48, tp=8, pp=1),
            priority=10,
            weight=2.0,
            preemptible=False,
        ),
        JobSpec(
            name="research",
            plan=plan_for_gpus(48, tp=8, pp=1),
            priority=1,
            weight=1.0,
        ),
    )


def build_scheduler(
    seed: int,
    policy: str,
    hub: Optional[object] = None,
    config: Optional[SchedulerConfig] = None,
) -> ClusterScheduler:
    cluster = Cluster.build(n_nodes=TESTBED_NODES, n_spares=TESTBED_SPARES)
    return ClusterScheduler(
        cluster=cluster,
        topology=TESTBED_TOPOLOGY,
        jobs=testbed_jobs(),
        policy=policy,
        config=config,
        rng=np.random.default_rng(seed),
        hub=hub,
    )


def build_injector(seed: int, sampler: str = "auto") -> CorrelatedFaultInjector:
    return CorrelatedFaultInjector(
        n_nodes=TESTBED_NODES,
        topology=TESTBED_TOPOLOGY,
        domains=list(CHAOS_DOMAINS),
        rng=np.random.default_rng(seed),
        catalog=list(CHAOS_CATALOG),
        rate_multiplier=CHAOS_RATE_MULTIPLIER,
        sampler=sampler,
    )


def run_policy(
    seed: int,
    policy: str,
    days: float = 3.0,
    hub: Optional[object] = None,
    sampler: str = "auto",
) -> Tuple[MultiJobReport, ClusterScheduler]:
    """One full multi-tenant run under one arbitration policy."""
    scheduler = build_scheduler(seed, policy, hub=hub)
    report = scheduler.run(build_injector(seed, sampler=sampler), duration=days * 86400.0)
    return report, scheduler


def _fingerprint(report: MultiJobReport) -> str:
    """A byte-exact serialization of everything the gate compares."""
    lines = [f"{t:.9f} {g:.9f}" for t, g in report.timeline()]
    lines += [
        f"{d.time:.9f} {d.action} {d.job} {d.detail!r}" for d in report.decisions
    ]
    return "\n".join(lines)


def _check_monotone(report: MultiJobReport) -> None:
    total_weight = sum(j.weight for j in report.per_job.values())
    cursor = 0.0
    for segment in report.segments:
        if segment.start < cursor - 1e-9 or segment.end <= segment.start:
            raise ValueError(f"non-monotone goodput segment: {segment}")
        if not 0.0 <= segment.goodput <= total_weight + 1e-9:
            raise ValueError(f"goodput out of range: {segment}")
        cursor = segment.end
    if report.segments and abs(report.segments[-1].end - report.duration) > 1e-6:
        raise ValueError("goodput timeline does not cover the horizon")
    times = [d.time for d in report.decisions]
    if times != sorted(times):
        raise ValueError("decision log is not time-ordered")


def _check_bounded_stalls(report: MultiJobReport, config: SchedulerConfig) -> None:
    """No job ever blocks unboundedly waiting on a spare."""
    bound = (
        config.silent_fault_detection_time
        + config.diagnose_time
        + config.spare_provisioning_time
        + 1.0
    )
    for decision in report.actions("stall"):
        wait = decision.detail_dict()["until"] - decision.time
        if not 0.0 < wait <= bound:
            raise ValueError(f"unbounded stall: {decision}")


def multi_tenant_chaos(
    seeds: Sequence[int] = (0, 1, 2), days: float = 3.0
) -> List[dict]:
    """CI gate: arbitration beats FIFO, deterministically, per seed."""
    config = SchedulerConfig()
    summaries: List[dict] = []
    for seed in seeds:
        reports: Dict[str, MultiJobReport] = {}
        for policy in ("priority", "fifo"):
            report, scheduler = run_policy(seed, policy, days=days)
            again, _ = run_policy(seed, policy, days=days)
            assert _fingerprint(report) == _fingerprint(again), (
                f"seed {seed} policy {policy}: run is not deterministic"
            )
            _check_monotone(report)
            _check_bounded_stalls(report, config)
            if not scheduler.pool.consistent():
                raise ValueError(
                    f"seed {seed} policy {policy}: spare ledger does not balance"
                )
            for name, summary in report.per_job.items():
                consumed = report.spares_consumed_by.get(name, 0)
                if consumed != summary.spares_consumed:
                    raise ValueError(f"spare accounting mismatch for {name}")
            reports[policy] = report
        arbitrated = reports["priority"].mean_goodput
        naive = reports["fifo"].mean_goodput
        assert arbitrated > naive, (
            f"seed {seed}: arbitrating scheduler ({arbitrated:.4f}) does not "
            f"beat FIFO-spares baseline ({naive:.4f})"
        )
        summaries.append(
            {
                "seed": seed,
                "goodput_priority": arbitrated,
                "goodput_fifo": naive,
                "improvement": arbitrated / naive if naive > 0 else float("inf"),
                "decisions_priority": len(reports["priority"].decisions),
                "decisions_fifo": len(reports["fifo"].decisions),
                "preemptions": sum(
                    j.preemptions for j in reports["priority"].per_job.values()
                ),
                "spares_consumed": sum(
                    reports["priority"].spares_consumed_by.values()
                ),
            }
        )
    return summaries
