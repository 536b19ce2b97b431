#!/usr/bin/env python
"""Benchmark the Monte Carlo campaign engine against its naive baseline.

Three measurements per scenario:

1. **Naive reference** — per-event oracle fault sampling and per-seed
   fixture rebuilds, run serially: what a campaign cost before the
   engine existed.
2. **Optimized serial** — vectorized count-first sampling plus shared
   per-process fixtures; the recorded ``speedup`` is reference over
   optimized wall clock, and the two campaigns' JSON must be
   byte-identical (the script exits non-zero otherwise).
3. **Optimized parallel** — the same seeds fanned over worker
   processes, again byte-identical to both serial campaigns.

A fourth check replays the fault sampler itself: for a grid of seeds the
vectorized path must reproduce the per-event reference oracle
event-for-event (time, kind, victim set, domain).  ``identity_ok`` and
``sampler_match`` in the output are what the CI ``mc-smoke`` job
asserts.

Results land in ``BENCH_mc.json``.  Usage::

    PYTHONPATH=src python benchmarks/bench_mc.py            # 256 seeds
    PYTHONPATH=src python benchmarks/bench_mc.py --small    # CI smoke
    PYTHONPATH=src python benchmarks/bench_mc.py -o out.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.fault.domains import CorrelatedFaultInjector
from repro.montecarlo import CampaignSpec, run_campaign
from repro.network.topology import Topology

FULL_SEEDS = 256
SMALL_SEEDS = 32
FULL_SAMPLER_SEEDS = 50
SMALL_SAMPLER_SEEDS = 20
WORKERS = 4


def _time_campaign(scenario: str, spec: CampaignSpec, n_seeds: int, weeks: float,
                   **kwargs):
    t0 = time.perf_counter()
    result = run_campaign(
        scenario, seeds=range(n_seeds), weeks=weeks, spec=spec, **kwargs
    )
    return result, time.perf_counter() - t0


def bench_scenario(scenario: str, n_seeds: int, weeks: float) -> dict:
    spec = CampaignSpec()
    reference, ref_s = _time_campaign(
        scenario, spec, n_seeds, weeks, reference=True
    )
    serial, serial_s = _time_campaign(scenario, spec, n_seeds, weeks)
    parallel, par_s = _time_campaign(
        scenario, spec, n_seeds, weeks, workers=WORKERS
    )
    identity = (
        reference.to_json() == serial.to_json() == parallel.to_json()
    )
    best_s = min(serial_s, par_s)
    return {
        "scenario": scenario,
        "n_seeds": n_seeds,
        "weeks": weeks,
        "reference": {
            "wall_clock_s": round(ref_s, 4),
            "seeds_per_s": round(n_seeds / ref_s, 1),
        },
        "optimized_serial": {
            "wall_clock_s": round(serial_s, 4),
            "seeds_per_s": round(n_seeds / serial_s, 1),
        },
        "optimized_parallel": {
            "workers": WORKERS,
            "wall_clock_s": round(par_s, 4),
            "seeds_per_s": round(n_seeds / par_s, 1),
        },
        "speedup": round(ref_s / best_s, 2),
        "identity_ok": identity,
    }


def bench_sampler_match(n_seeds: int, n_nodes: int = 512) -> dict:
    """Vectorized sampling must reproduce the oracle event-for-event."""
    horizon = 7 * 86400.0
    mismatches = 0
    events_checked = 0
    topology = Topology(n_nodes=n_nodes, nodes_per_rack=4, nodes_per_pod=16)

    def build(seed):
        return CorrelatedFaultInjector(
            n_nodes=n_nodes,
            topology=topology,
            rng=np.random.default_rng(seed),
            rate_multiplier=20.0,
        )

    for seed in range(n_seeds):
        ref = build(seed).sample_reference(horizon)
        vec = build(seed).sample_vectorized(horizon)
        events_checked += len(ref)
        if len(ref) != len(vec):
            mismatches += 1
            continue
        for a, b in zip(ref, vec):
            if (
                a.time != b.time
                or a.kind.name != b.kind.name
                or a.affected_nodes != b.affected_nodes
                or a.domain != b.domain
            ):
                mismatches += 1
                break
    return {
        "n_seeds": n_seeds,
        "n_nodes": n_nodes,
        "horizon_weeks": 1.0,
        "events_checked": events_checked,
        "mismatched_seeds": mismatches,
        "sampler_match": mismatches == 0,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--small", action="store_true", help="CI smoke subset (fewer seeds)"
    )
    parser.add_argument("-o", "--output", default="BENCH_mc.json")
    args = parser.parse_args(argv)

    n_seeds = SMALL_SEEDS if args.small else FULL_SEEDS
    sampler_seeds = SMALL_SAMPLER_SEEDS if args.small else FULL_SAMPLER_SEEDS

    campaign_rows = []
    for scenario, weeks in (("chaos", 1.0), ("scheduler", 0.5)):
        row = bench_scenario(scenario, n_seeds, weeks)
        campaign_rows.append(row)
        flag = "ok" if row["identity_ok"] else "MISMATCH"
        print(
            f"{scenario:>9s} campaign @ {n_seeds} seeds: "
            f"reference {row['reference']['wall_clock_s']:>6.2f}s -> "
            f"optimized {row['optimized_serial']['wall_clock_s']:>6.2f}s serial / "
            f"{row['optimized_parallel']['wall_clock_s']:>6.2f}s x{WORKERS} "
            f"({row['speedup']:.1f}x), identity {flag}"
        )

    sampler_row = bench_sampler_match(sampler_seeds)
    print(
        f"sampler oracle match: {sampler_row['events_checked']} events over "
        f"{sampler_row['n_seeds']} seeds, "
        f"{sampler_row['mismatched_seeds']} mismatched seeds"
    )

    doc = {
        "benchmark": "Monte Carlo resilience campaigns",
        "campaigns": campaign_rows,
        "sampler": sampler_row,
    }
    with open(args.output, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.output}")

    if not all(r["identity_ok"] for r in campaign_rows):
        print("FAIL: campaign results differ across execution paths")
        return 1
    if not sampler_row["sampler_match"]:
        print("FAIL: vectorized sampler deviates from the reference oracle")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
