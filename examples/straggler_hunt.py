#!/usr/bin/env python
"""Straggler hunt: find slow machines and hung GPUs with the §5 tools.

Plants a few degraded hosts in a simulated fleet, records per-rank
forward segment spans, and walks the paper's playbook: heat-map outlier
detection, the 3D-parallel dependency view of a hang, and timeout-log
localization.

    python examples/straggler_hunt.py
"""

import numpy as np

from repro.observability import (
    DependencyGraph,
    analyze,
    localize_hang,
    rank_view,
    render,
    render_ascii,
    simulate_timeout_logs,
    straggler_machines,
)
from repro.parallel import ParallelPlan
from repro.sim import TraceRecorder


def main() -> None:
    plan = ParallelPlan(dp=8, tp=8, pp=4, vpp=2)  # 256 ranks
    rng = np.random.default_rng(3)

    # --- act 1: the heat map finds computational stragglers ----------------
    slow_hosts = {5, 21}
    spans = TraceRecorder()
    for step in range(12):
        for rank in range(plan.world_size):
            slowdown = 1.10 if rank // 8 in slow_hosts else 1.0
            latency = 0.1 * slowdown + rng.normal(0, 0.001)
            spans.record("forward", rank, 0.0, latency, step=step)
    result = analyze(spans, "forward")
    print(render_ascii(result, width=64, label="forward-latency heat map (256 ranks)"))
    print(f"flagged machines: {straggler_machines(result)} (planted: {sorted(slow_hosts)})\n")

    # --- act 2: a GPU hangs in NCCL; the 3D view localizes it --------------
    faulty_rank = 77
    print("--- NCCL hang: 3D-parallel view of the suspect ---")
    print(render(rank_view(plan, faulty_rank, error="no timeout log emitted")))
    graph = DependencyGraph(plan)
    affected = graph.affected_by(faulty_rank)
    print(f"\nfirst-wave stalls: tensor={affected['tensor'][:4]}... "
          f"pipeline={affected['pipeline']}")

    logs = simulate_timeout_logs(plan, faulty_ranks=[faulty_rank])
    diagnosis = localize_hang(plan, logs)
    print(f"timeout-log localization: hung ranks {sorted(diagnosis.hung_ranks)} "
          f"on nodes {sorted(diagnosis.hung_nodes)} "
          f"(consistent: {diagnosis.consistent})")
    print("-> block the node, let Kubernetes replace it, resume from checkpoint.")


if __name__ == "__main__":
    main()
