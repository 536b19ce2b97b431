"""One benchmark operation, run in its own interpreter as a CLI user runs it.

    python3 perfbench/ops.py --op tune_fabric --mode serial --seed 0 [--trace]

Each operation calls the same public functions, with the same arguments,
as the CLI command it names (``--mode pool`` adds ``--workers 2`` where
the command has it).  The process builds its inputs, stamps
``time.monotonic()`` as ``ready`` (the parent's launch stamp to ``ready``
is the set-up time), times the operation with a host-speed probe around
and inside it, checks its output and prints one JSON line: times, probe
time, peak RSS, the sha256 of the simulated output, deterministic
counters, failed checks and, with ``--trace``, the per-layer span summary
of :mod:`spans`.

Only ``mc_*`` operations read ``--seed``: it shifts the campaign's seed
window to ``[seed * n, seed * n + n)``.  Every other operation is
deterministic and ignores it.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import os
import resource
import signal
import statistics
import sys
import time
from typing import Any, Dict, List, Tuple

GPUS, BATCH = 12288, 6144
POOL_WORKERS = 2
SWEEP_SCALES = (
    (256, 768), (512, 768), (768, 768), (1024, 768),
    (3072, 6144), (6144, 6144), (8192, 6144), (12288, 6144),
)
MC_SEEDS = {"chaos": 256, "scheduler": 64}
PROBE_LOOPS = 20_000
PROBE_EVERY_S = 0.1


def probe_once() -> float:
    """CPU time of one run of a fixed loop: the host's speed right now.

    The loop is the benchmark's own, independent of the simulator, so a
    change to the program cannot move it; only the host can.  CPU time,
    not wall time, so that waiting for a core behind the operation's own
    pool workers does not read as a slow host.
    """
    started = time.thread_time()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i
    return time.thread_time() - started


class HostSpeed:
    """Probe runs just before and after the operation and, with ``during``,
    every PROBE_EVERY_S inside it from a SIGALRM handler."""

    def __init__(self, during: bool) -> None:
        self.during = during
        self.times: List[float] = []
        self.inside_s = 0.0  # wall time the probe took inside the operation

    def _tick(self, signum, frame) -> None:
        started = time.perf_counter()
        self.times.append(probe_once())
        self.inside_s += time.perf_counter() - started

    def arm(self) -> None:
        self.times += [probe_once() for _ in range(3)]
        if self.during:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def disarm(self) -> None:
        if self.during:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def finish(self) -> float:
        """The median probe time around and inside the operation."""
        self.times += [probe_once() for _ in range(3)]
        return statistics.median(self.times)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_reports(reports, problems: List[str]) -> None:
    """IterationResult terms add up, and MFU stays under the GEMM cap."""
    for report in reports:
        result = report.details
        total = math.fsum(result.terms().values())
        if not math.isclose(total, result.iteration_time, rel_tol=1e-12):
            problems.append(
                f"{report.system}: terms sum {total!r} != iteration_time "
                f"{result.iteration_time!r}"
            )
        cap = report.job.gpu_spec.gemm_eff_max
        if not 0 < result.mfu <= cap:
            problems.append(f"{report.system}: MFU {result.mfu!r} outside (0, {cap}]")


def report_numbers(comparison) -> Dict[str, Any]:
    return {
        side.system: dataclasses.asdict(side.details)
        for side in (comparison.megascale, comparison.baseline)
    }


# -- operations ------------------------------------------------------------------
# Each ``setup_*`` builds the inputs and returns a zero-argument callable
# (the timed operation) plus a ``finish`` that checks the output and
# returns (digest text, counters, accuracy metrics, problems).


def setup_compare(workers: int, seed: int):
    from repro.core import compare, render_table
    from repro.core.config import TrainingJob

    job = TrainingJob(model="gpt-175b", n_gpus=GPUS, global_batch=BATCH, tp=8, pp=8, vpp=6)

    def op():
        result = compare(job, backend="analytic")
        return result, render_table([result.baseline, result.megascale]) + "\n" + result.summary()

    def finish(out):
        from repro.calibration import load_anchors

        result, text = out
        problems: List[str] = []
        check_reports([result.megascale, result.baseline], problems)
        published = {
            a.system: a.published
            for a in load_anchors()
            if a.metric == "mfu" and a.model.name == job.model_spec.name
            and a.n_gpus == GPUS and a.global_batch == BATCH
        }
        simulated = {"megascale": result.megascale.mfu, "megatron-lm": result.baseline.mfu}
        if sorted(published) != sorted(simulated):
            problems.append(f"published MFU anchors found for {sorted(published)}")
            errors = [0.0]
        else:
            errors = [abs(simulated[s] * 100 - published[s]) / published[s] for s in simulated]
        digest = json.dumps({"text": text, "results": report_numbers(result)}, sort_keys=True)
        return digest, {}, {"mfu_rel_err": max(errors)}, problems

    return op, finish


def setup_sweep(workers: int, seed: int):
    from repro.core import compare, job_175b
    from repro.exec import run_tasks

    jobs = [job_175b(n_gpus=gpus, global_batch=batch) for gpus, batch in SWEEP_SCALES]

    def op():
        results, _stats = run_tasks(compare, jobs, workers=workers)
        rows = [
            f"{gpus:>6d} {batch:>6d} {r.baseline.mfu:>8.1%} {r.megascale.mfu:>9.1%} "
            f"{r.speedup:>7.2f}x"
            for (gpus, batch), r in zip(SWEEP_SCALES, results)
        ]
        return results, "\n".join(rows)

    def finish(out):
        results, text = out
        problems: List[str] = []
        if len(results) != len(SWEEP_SCALES):
            problems.append(f"{len(results)} sweep rows, expected {len(SWEEP_SCALES)}")
        for r in results:
            check_reports([r.megascale, r.baseline], problems)
        digest = json.dumps(
            {"text": text, "results": [report_numbers(r) for r in results]}, sort_keys=True
        )
        return digest, {}, {}, problems

    return op, finish


def setup_calibrate(workers: int, seed: int):
    from repro.calibration import (
        CalibratedProfile, calibration_report, check_drift, default_fixture_dir, load_anchors,
    )

    fixture_dir = default_fixture_dir()
    anchors = load_anchors(fixture_dir)
    profile = CalibratedProfile.load(os.path.join(fixture_dir, "profile.json"))
    with open(os.path.join(fixture_dir, "baseline_report.json"), encoding="utf-8") as fh:
        baseline = json.load(fh)

    def op():
        report = calibration_report(anchors, profile=profile, workers=workers)
        text = report.describe()
        return report, text, check_drift(report, baseline)

    def finish(out):
        report, text, violations = out
        problems = [v.describe() for v in violations]
        if len(report.rows) != len(anchors):
            problems.append(f"{len(report.rows)} report rows for {len(anchors)} anchors")
        accuracy = {"anchor_max_rel_err": report.max_abs_rel_error}
        return report.to_json() + text, {"anchors": len(report.rows)}, accuracy, problems

    return op, finish


def setup_tune(backend: str, workers: int, seed: int):
    from repro.model import MODEL_CATALOG
    from repro.parallel import tune_with_stats

    model = MODEL_CATALOG["gpt-175b"]

    def op():
        results, stats = tune_with_stats(
            model, n_gpus=GPUS, global_batch=BATCH, top_k=3, gpus_per_node=8,
            max_micro_batch=2, max_candidates=None, workers=workers, backend=backend,
        )
        return results, stats, "\n".join(f"#{i}  {r.describe()}" for i, r in enumerate(results, 1))

    def finish(out):
        results, stats, text = out
        problems: List[str] = []
        times = [r.iteration_time for r in results]
        if len(results) != 3 or times != sorted(times):
            problems.append(f"top-k not 3 plans sorted by time: {times}")
        problems.extend(
            f"plan {r.plan.describe()} has world size {r.plan.world_size}"
            for r in results if r.plan.world_size != GPUS
        )
        accounted = (stats.evaluated + stats.persistent_hits + stats.bound_pruned
                     + stats.dominance_pruned + stats.capped)
        if accounted != stats.feasible:
            problems.append(f"search stats account for {accounted} of {stats.feasible} feasible")
        digest = json.dumps(
            {"text": text, "top": [[r.iteration_time, r.mfu] for r in results]}
        )
        counters = {"feasible": stats.feasible, "engine_evals": stats.evaluated,
                    "bound_pruned": stats.bound_pruned,
                    "dominance_pruned": stats.dominance_pruned}
        return digest, counters, {}, problems

    return op, finish


def setup_mc(scenario: str, workers: int, seed: int):
    from repro.montecarlo import CampaignSpec, run_campaign

    n = MC_SEEDS[scenario]
    seeds = range(seed * n, seed * n + n)
    spec = CampaignSpec(n_nodes=512, policy="priority")

    def op():
        result = run_campaign(
            scenario=scenario, seeds=seeds, weeks=1.0, workers=workers,
            sampler="auto", reference=False, spec=spec,
        )
        return result, result.describe()

    def finish(out):
        result, _text = out
        problems: List[str] = []
        document = result.to_json()
        if result.seeds != list(seeds):
            problems.append("campaign seeds differ from the requested window")
        short = [k for k, v in result.per_seed.items() if len(v) != n]
        if short:
            problems.append(f"per-seed metrics missing seeds: {short}")
        if scenario == "chaos":
            counters = {"incidents": sum(result.incident_totals.values())}
        else:
            counters = {"decisions": int(sum(result.per_seed["decisions"]))}
        return document, counters, {}, problems

    return op, finish


# Operation name -> setup(workers, seed), in the order a round runs them.
SETUPS = {
    "compare": setup_compare,
    "sweep": setup_sweep,
    "calibrate": setup_calibrate,
    "tune_analytic": functools.partial(setup_tune, "analytic"),
    "tune_fabric": functools.partial(setup_tune, "fabric"),
    "mc_chaos": functools.partial(setup_mc, "chaos"),
    "mc_scheduler": functools.partial(setup_mc, "scheduler"),
}
OPS = tuple(SETUPS)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def memo_counts() -> Dict[str, Tuple[int, int, int]]:
    from repro.exec.memo import registered_caches

    return {n: (c.hits, c.misses, c.evictions) for n, c in registered_caches().items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--op", choices=OPS, required=True)
    parser.add_argument("--mode", choices=("serial", "pool"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import repro.cli  # noqa: F401  (what ``python -m repro`` imports first)

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    workers = POOL_WORKERS if args.mode == "pool" else 0
    op, finish = SETUPS[args.op](workers, args.seed)
    ready = time.monotonic()

    # No probe inside a traced operation: it would land in the layer times.
    speed = HostSpeed(during=tracer is None)
    memo_before = memo_counts()
    speed.arm()
    started = time.perf_counter()
    out = tracer.run_root(op) if tracer is not None else op()
    speed.disarm()
    op_s = time.perf_counter() - started
    if not workers:
        # The probe ran in place of the operation; with pool workers it
        # ran in the parent, beside the workers doing the operation.
        op_s -= speed.inside_s
    probe = speed.finish()
    memo_after = memo_counts()
    rss = peak_rss_mb()

    digest_text, counters, accuracy, problems = finish(out)
    record = {
        "op": args.op,
        "ready": ready,
        "op_s": op_s,
        "probe_s": probe,
        "rss_mb": rss,
        "digest": sha256(digest_text),
        "counters": counters,
        "accuracy": accuracy,
        "problems": problems,
    }
    if tracer is not None:
        summary = tracer.summary()
        root = summary["root"]
        if not math.isclose(root["attributed_s"] + root["unattributed_s"], root["traced_s"],
                            rel_tol=1e-9):
            problems.append(f"layer self times do not add up to the traced time: {root}")
        zero = (0, 0, 0)
        record["trace"] = summary
        record["memo"] = {
            name: [a - b for a, b in zip(after, memo_before.get(name, zero))]
            for name, after in memo_after.items()
        }
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
