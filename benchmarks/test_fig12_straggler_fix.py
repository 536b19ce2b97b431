"""Figure 12 / §6.3: MFU stabilizes after fixing stragglers + bad code.

Two coupled findings:

* **Computational stragglers** — evicting the ~10%-slower hosts recovers
  ~0.7% MFU and removes run-to-run inconsistency.
* **MFU decreasing** — irregular GC and slow PyTorch ops make DP ranks
  launch the gradient reduce-scatter increasingly staggered, so MFU
  decays over a run; after removing the problematic code segments the
  MFU curve is flat.  The CUDA-event analysis must attribute the decline
  to the reduce-scatter launch skew (the paper's diagnosis).
"""

from __future__ import annotations

import numpy as np
from conftest import print_banner

from repro.core.features import MEGASCALE_ISO_BATCH
from repro.model import GPT_175B
from repro.observability import attribute_decline
from repro.parallel import plan_for_gpus
from repro.sim import TraceRecorder
from repro.training import TrainingRunner

N_ITER = 80


def compute_runs():
    plan = plan_for_gpus(256, tp=8, pp=8, vpp=6)
    dirty = TrainingRunner(
        GPT_175B,
        plan,
        MEGASCALE_ISO_BATCH.with_options(clean_codepath=False),
        global_batch=256,
        seed=4,
    ).run(N_ITER)
    clean = TrainingRunner(
        GPT_175B, plan, MEGASCALE_ISO_BATCH, global_batch=256, seed=4
    ).run(N_ITER)
    return dirty, clean


def synthesize_timer(dirty_run) -> TraceRecorder:
    """Per-rank segment spans matching the dirty run's growing skew."""
    rng = np.random.default_rng(0)
    timer = TraceRecorder()
    for step in range(0, N_ITER, 2):
        for rank in (0, 1):  # the paper's scaled-down two-rank experiment
            timer.record("forward", rank, 0.0, 4.0 + rng.normal(0, 0.01), step=step)
            timer.record("backward", rank, 0.0, 8.0 + rng.normal(0, 0.02), step=step)
            timer.record("optimizer", rank, 0.0, 0.4 + rng.normal(0, 0.004), step=step)
            skew = step * 2e-3 if rank == 1 else 0.0
            start = 12.5 + skew
            timer.record("reduce_scatter", rank, start, start + 0.05 + skew, step=step)
    return timer


def test_fig12_straggler_fix(benchmark):
    dirty, clean = benchmark.pedantic(compute_runs, rounds=1, iterations=1)

    print_banner("Figure 12 — MFU over steps, before/after the fixes")
    for label, run in (("before (dirty code)", dirty), ("after  (fixed)", clean)):
        series = run.mfu_series[:: N_ITER // 16]
        bar = " ".join(f"{m * 100:4.1f}" for m in series)
        print(f"{label:<22s} {bar}")
        print(
            f"{'':<22s} slope {run.mfu_slope_per_100_steps() * 100:+.3f} MFU pts / 100 steps"
        )

    diagnosis = attribute_decline(synthesize_timer(dirty))
    print(f"\nCUDA-event diagnosis: culprit={diagnosis.culprit}")
    print(f"  {diagnosis.conclusion}")

    # -- shape assertions --------------------------------------------------------
    assert dirty.mfu_slope_per_100_steps() < -0.0005, "dirty run must decay"
    assert abs(clean.mfu_slope_per_100_steps()) < 0.0005, "fixed run must be flat"
    assert clean.mean_mfu > dirty.mean_mfu
    # The analysis tool reaches the paper's conclusion.
    assert diagnosis.culprit == "reduce_scatter"
    assert diagnosis.launch_skew_growing
    assert "forward" in diagnosis.stable_segments
