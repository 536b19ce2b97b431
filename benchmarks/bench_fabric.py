#!/usr/bin/env python
"""Benchmark the fabric cost backend at the paper's 12,288-GPU scale.

Two measurements:

1. **Solver throughput** — the vectorized max-min water-fill against the
   per-flow Python reference on cross-pod ring flow sets routed over a
   1,536-node CLOS fabric.  Records flows priced per second for both
   solvers and verifies the allocations agree within 1e-9 relative (the
   script exits non-zero otherwise, which the CI ``fabric-smoke`` job
   asserts).

2. **Fabric-backed plan search** — ``search_plans(backend="fabric")`` on
   GPT-175B at 12,288 GPUs from cold caches, with prune-rate stats, to
   show the flow-level backend is now viable inside ``tune``.

Results land in ``BENCH_fabric.json``.  Usage::

    PYTHONPATH=src python benchmarks/bench_fabric.py            # full set
    PYTHONPATH=src python benchmarks/bench_fabric.py --small    # CI smoke
    PYTHONPATH=src python benchmarks/bench_fabric.py -o out.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.exec.memo import clear_caches
from repro.model import GPT_175B
from repro.network.flow import Flow, max_min_fair_rates, max_min_fair_rates_reference
from repro.network.topology import ClosFabric
from repro.parallel.search import search_plans

MISMATCH_RTOL = 1e-9

FULL_FLOW_COUNTS = (512, 2048, 8192)
SMALL_FLOW_COUNTS = (512, 2048)


def ring_flows(fabric: ClosFabric, n_flows: int) -> list:
    """Cross-pod neighbour-pair flows with heavy uplink sharing.

    Each flow hops ``nodes_per_pod`` nodes ahead, so every path crosses
    ToR uplinks, agg and spine layers — the congested regime where the
    water-fill does real work (many links, many saturation levels).
    """
    stride = fabric.nodes_per_pod
    flows = []
    for i in range(n_flows):
        src = i % fabric.n_nodes
        dst = (src + stride) % fabric.n_nodes
        path = fabric.path(src, dst, rail=i % fabric.rails, flow_id=i)
        flows.append(Flow(flow_id=i, path=path, demand=fabric.nic_rate))
    return flows


def _time_solver(fabric: ClosFabric, n_flows: int, solve):
    flows = ring_flows(fabric, n_flows)
    t0 = time.perf_counter()
    rates = solve(flows, fabric.links)
    return rates, time.perf_counter() - t0


def bench_solver(fabric: ClosFabric, n_flows: int) -> dict:
    ref_rates, ref_s = _time_solver(fabric, n_flows, max_min_fair_rates_reference)
    vec_rates, vec_s = _time_solver(fabric, n_flows, max_min_fair_rates)
    worst = 0.0
    for fid, ref in ref_rates.items():
        vec = vec_rates[fid]
        worst = max(worst, abs(vec - ref) / max(1.0, abs(ref)))
    return {
        "n_flows": n_flows,
        "reference": {
            "wall_clock_s": round(ref_s, 4),
            "flows_per_s": round(n_flows / ref_s, 1),
        },
        "vectorized": {
            "wall_clock_s": round(vec_s, 4),
            "flows_per_s": round(n_flows / vec_s, 1),
        },
        "speedup": round(ref_s / vec_s, 2),
        "max_rel_mismatch": worst,
        "match": worst <= MISMATCH_RTOL,
    }


def bench_fabric_tune(n_gpus: int, batch: int, top_k: int = 3) -> dict:
    clear_caches()
    t0 = time.perf_counter()
    result = search_plans(GPT_175B, n_gpus, batch, top_k=top_k, backend="fabric")
    wall = time.perf_counter() - t0
    s = result.stats
    return {
        "model": "gpt-175b",
        "n_gpus": n_gpus,
        "global_batch": batch,
        "top_k": top_k,
        "backend": "fabric",
        "wall_clock_s": round(wall, 4),
        "feasible_candidates": s.feasible,
        "engine_evals": s.evaluated,
        "prune_rate": round(s.prune_rate, 4),
        "best_plan": result.top[0].plan.describe(),
        "best_mfu": round(result.top[0].mfu, 4),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--small", action="store_true", help="CI smoke subset (fewer/smaller flow sets)"
    )
    parser.add_argument("-o", "--output", default="BENCH_fabric.json")
    args = parser.parse_args(argv)

    n_nodes, nodes_per_pod = 1536, 64  # 12,288 GPUs at 8/node
    t0 = time.perf_counter()
    fabric = ClosFabric(n_nodes=n_nodes, nodes_per_pod=nodes_per_pod)
    build_s = time.perf_counter() - t0

    flow_counts = SMALL_FLOW_COUNTS if args.small else FULL_FLOW_COUNTS
    solver_rows = []
    for n_flows in flow_counts:
        row = bench_solver(fabric, n_flows)
        solver_rows.append(row)
        flag = "ok" if row["match"] else "MISMATCH"
        print(
            f"solver @ {n_flows:>5d} flows: "
            f"reference {row['reference']['flows_per_s']:>9.0f} flows/s -> "
            f"vectorized {row['vectorized']['flows_per_s']:>9.0f} flows/s "
            f"({row['speedup']:.1f}x), {flag}"
        )

    tune_row = bench_fabric_tune(12288, 6144)
    print(
        f"fabric tune @ {tune_row['n_gpus']} GPUs: "
        f"{tune_row['wall_clock_s']:.1f}s, "
        f"{tune_row['engine_evals']}/{tune_row['feasible_candidates']} engine evals "
        f"(prune rate {tune_row['prune_rate']:.0%}), best MFU {tune_row['best_mfu']:.1%}"
    )

    doc = {
        "benchmark": "fabric cost backend at 12,288-GPU scale",
        "fabric": {
            "n_nodes": n_nodes,
            "nodes_per_pod": nodes_per_pod,
            "build_s": round(build_s, 4),
        },
        "solver": solver_rows,
        "fabric_tune": tune_row,
    }
    with open(args.output, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.output}")

    if not all(r["match"] for r in solver_rows):
        print("FAIL: vectorized solver diverged from the reference", file=sys.stderr)
        return 1
    if any(r["vectorized"]["flows_per_s"] <= 0 for r in solver_rows):
        print("FAIL: solver throughput not recorded", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
