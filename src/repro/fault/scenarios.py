"""Predefined fault scenarios (§5, §6.3 war stories).

Each scenario wires a specific failure pattern into a small live cluster
with the robust-training driver, runs the detection machinery, and
reports what the framework concluded — executable versions of the
paper's troubleshooting anecdotes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

from ..hardware.cluster import Cluster
from ..sim import Simulator
from .driver import RobustTrainingDriver
from .faults import CUDA_ERROR, NCCL_HANG, NIC_DEGRADED, SLOW_HOST, FaultKind
from .kubernetes import MockKubernetes


@dataclass
class ScenarioOutcome:
    """What happened when the scenario ran."""

    name: str
    injected: Dict[int, str]  # node_id -> fault name
    detected: Dict[int, str]  # node_id -> verdict value
    evicted: List[int]
    auto_recovered: bool
    notes: str = ""
    shrunk: List[int] = field(default_factory=list)  # dropped, not replaced


@dataclass
class Scenario:
    """A named failure pattern to inject into a live driver."""

    name: str
    faults: List[FaultKind]  # one per victim executor, in order
    detect_by: float = 180.0  # sim seconds to allow for detection
    expect_auto: bool = True

    def run(self, n_nodes: int = 4, n_spares: int = 4) -> ScenarioOutcome:
        sim = Simulator()
        cluster = Cluster.build(n_nodes=n_nodes, n_spares=n_spares)
        driver = RobustTrainingDriver(
            sim=sim, cluster=cluster, kubernetes=MockKubernetes(cluster=cluster)
        )
        driver.start()
        sim.run(until=45.0)  # steady-state heartbeats first
        driver.drain_heartbeats()

        injected: Dict[int, str] = {}
        for index, fault in enumerate(self.faults):
            victim = driver.executors[index % len(driver.executors)]
            victim.inject(fault)
            injected[victim.node.node_id] = fault.name

        sim.run(until=45.0 + self.detect_by)
        anomalies = driver.check_anomalies()
        detected = {a.node_id: a.verdict.value for a in anomalies}
        auto = bool(anomalies) and all(
            a.triggers_auto_recovery for a in anomalies if a.node_id in injected
        )
        evicted = driver.recover() if anomalies else []
        return ScenarioOutcome(
            name=self.name,
            injected=injected,
            detected=detected,
            evicted=evicted,
            auto_recovered=auto,
            shrunk=list(driver.shrunk),
        )


def crash_scenario() -> Scenario:
    """A training process dies with a CUDA error: caught by log keywords."""
    return Scenario(name="cuda-crash", faults=[CUDA_ERROR])


def hang_scenario() -> Scenario:
    """A GPU blocks in NCCL: heartbeats continue, traffic ceases."""
    return Scenario(name="nccl-hang", faults=[NCCL_HANG])


def gray_failure_scenario() -> Scenario:
    """A silently degraded NIC: no automatic verdict — needs the heat map.

    The driver's heartbeat rules see nothing (traffic only mildly down on
    one rail), reproducing why §5 needed deeper tooling.
    """
    return Scenario(name="gray-nic", faults=[NIC_DEGRADED], expect_auto=False)


def straggler_scenario() -> Scenario:
    """A 10%-slow host: invisible to heartbeats, visible to diagnostics."""
    return Scenario(name="slow-host", faults=[SLOW_HOST], expect_auto=False)


def multi_fault_scenario() -> Scenario:
    """Two simultaneous failures on different nodes."""
    return Scenario(name="double-fault", faults=[CUDA_ERROR, NCCL_HANG])


ALL_SCENARIOS: List[Callable[[], Scenario]] = [
    crash_scenario,
    hang_scenario,
    gray_failure_scenario,
    straggler_scenario,
    multi_fault_scenario,
]


def run_all(n_nodes: int = 4, n_spares: int = 6) -> List[ScenarioOutcome]:
    """Execute every scenario on a fresh cluster each."""
    return [factory().run(n_nodes=n_nodes, n_spares=n_spares) for factory in ALL_SCENARIOS]


# -- correlated fault domains (degraded-mode war stories) -----------------------


def rack_power_scenario() -> Scenario:
    """A PSU trips and a whole rack of executors crashes at once."""
    return Scenario(name="rack-psu", faults=[CUDA_ERROR, CUDA_ERROR])


def tor_switch_scenario() -> Scenario:
    """A ToR switch dies: every server it fronts hangs in NCCL together."""
    return Scenario(name="tor-switch", faults=[NCCL_HANG, NCCL_HANG])


def spare_exhaustion_scenario() -> Scenario:
    """A correlated crash wider than the spare pool: the job must shrink."""
    return Scenario(name="spare-exhaustion", faults=[CUDA_ERROR, CUDA_ERROR, CUDA_ERROR])


CORRELATED_SCENARIOS: List[Callable[[], Scenario]] = [
    rack_power_scenario,
    tor_switch_scenario,
    spare_exhaustion_scenario,
]


def run_correlated(n_nodes: int = 4, n_spares: int = 1) -> List[ScenarioOutcome]:
    """Execute the correlated-domain scenarios against a thin spare pool.

    With fewer spares than the blast radius, each run exercises the
    degraded-mode path: faulty nodes past the pool are shed (``shrunk``)
    rather than replaced, and the driver keeps running.
    """
    return [
        factory().run(n_nodes=n_nodes, n_spares=n_spares) for factory in CORRELATED_SCENARIOS
    ]


def chaos_smoke(seeds: Sequence[int] = (0, 1, 2), weeks: float = 1.0) -> List[dict]:
    """CI chaos job: live scenarios + correlated production runs per seed.

    For each seed: run every live scenario (independent and correlated),
    then a production run under a :class:`CorrelatedFaultInjector` with a
    zero-spare cluster and a flaky HDFS — the full degraded-mode
    pipeline.  ``RecoveryRecord`` validation raises on any non-monotone
    recovery timeline; this function additionally re-checks each log and
    verifies the run is deterministic under its seed.  Raises
    ``AssertionError``/``ValueError`` on any violation, so a plain
    invocation doubles as a pass/fail gate.
    """
    import numpy as np

    from ..hardware.cluster import Cluster as _Cluster
    from ..model import GPT_175B
    from ..network.topology import Topology
    from ..parallel.plan import plan_for_gpus
    from .checkpoint import FLAKY_HDFS, CheckpointPlanner
    from .domains import CorrelatedFaultInjector
    from .driver import ProductionRun

    summaries: List[dict] = []
    for seed in seeds:
        live = run_all() + run_correlated()

        def build() -> ProductionRun:
            n_nodes = 128
            plan = plan_for_gpus(n_nodes * 8, tp=8, pp=8, vpp=2)
            injector = CorrelatedFaultInjector(
                n_nodes=n_nodes,
                topology=Topology(n_nodes=n_nodes, nodes_per_rack=4, nodes_per_pod=16),
                rng=np.random.default_rng(seed),
                rate_multiplier=20.0,  # compress weeks of faults into the horizon
            )
            return ProductionRun(
                plan,
                injector,
                planner=CheckpointPlanner(model=GPT_175B, plan=plan),
                rng=np.random.default_rng(seed),
                cluster=_Cluster.build(n_nodes=n_nodes, n_spares=0),
                integrity=FLAKY_HDFS,
            )

        result = build().run(duration=weeks * 7 * 86400.0)
        again = build().run(duration=weeks * 7 * 86400.0)
        for record in result.log.records:
            if not (
                record.fault.time
                <= record.detected_at
                <= record.diagnosed_at
                <= record.resumed_at
            ):
                raise ValueError(f"non-monotone recovery timeline: {record}")
        timeline = [
            (r.fault.time, r.detected_at, r.diagnosed_at, r.resumed_at)
            for r in result.log.records
        ]
        timeline_again = [
            (r.fault.time, r.detected_at, r.diagnosed_at, r.resumed_at)
            for r in again.log.records
        ]
        assert timeline == timeline_again, f"seed {seed}: run is not deterministic"
        assert result.wall_time > 0 and result.completed_iterations >= 0
        summaries.append(
            {
                "seed": seed,
                "scenarios": len(live),
                "restarts": result.restarts,
                "fallback_loads": result.log.fallback_loads(),
                "degraded_intervals": len(result.log.degraded),
                "final_dp": result.final_dp,
                "effective_rate": result.effective_rate(6.34),
            }
        )
    return summaries
