"""Repository benchmark: host time of every user-facing command at paper scale.

    python3 perfbench/run.py --workload serial --seed 0 --seconds 40 --trace 0

A run executes the seven operations of ``ops.py`` (``compare``,
``sweep``, ``calibrate``, ``tune`` on both backends, ``mc`` on both
scenarios), each in a fresh interpreter, one at a time: a closed loop
with one client.  After up to two rounds of all seven, further runs
share the remaining ``--seconds`` equally in process time; every time
metric is a median over an operation's runs, each scaled by the host-speed
probe timed around and inside it (see README.md).  The ``pool`` workload gives every
command that has ``--workers`` two worker processes.

With ``--trace 1`` the run makes one untraced and two traced passes per
operation instead, and reports the per-layer metrics of ``spans.py``.
Both traced passes must agree on every counter and digest.

The last line of standard output is the result object; the line before
it holds the per-operation samples, digests and counters.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from ops import OPS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serial", "pool")
OP_TIMEOUT_S = 120
MIN_SAMPLES = 2
CAMPAIGNS = ("mc_chaos", "mc_scheduler")
# The probe's CPU time (``ops.probe_once``) on the quiet 2-core host of README.md.
REFERENCE_PROBE_S = 0.0012


class OpFailed(Exception):
    """An operation exited non-zero, printed no record or failed a check."""


def run_op(op: str, mode: str, seed: int, trace: bool) -> dict:
    """Run one operation in a fresh interpreter and return its record."""
    cmd = [sys.executable, str(HERE / "ops.py"), "--op", op, "--mode", mode,
           "--seed", str(seed)] + (["--trace"] if trace else [])
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    launched = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise OpFailed(f"{op}: timed out after {OP_TIMEOUT_S}s")
    finally:
        if proc.poll() is None:  # timed out, or the runner is being stopped
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0 or not out.strip():
        raise OpFailed(f"{op}: exit {proc.returncode}: {err.strip()[-2000:]}")
    record = json.loads(out.strip().splitlines()[-1])
    record["setup_s"] = record["ready"] - launched
    if record["problems"]:
        raise OpFailed(f"{op}: " + "; ".join(record["problems"]))
    return record


class Tally:
    """Attempted / failed operation counts plus the failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def attempt(self, op: str, mode: str, seed: int, trace: bool = False) -> Optional[dict]:
        self.attempted += 1
        try:
            return run_op(op, mode, seed, trace)
        except OpFailed as exc:
            self.failures.append(str(exc))
            return None

    def fail(self, message: str) -> None:
        self.failures.append(message)


def same_evidence(first: dict, other: dict, keys=("digest", "counters", "accuracy")) -> bool:
    return all(first[k] == other[k] for k in keys)


def check_pool_campaigns(mode: str, seed: int, digests: Dict[str, str], tally: Tally) -> None:
    """In ``pool``, each campaign's JSON must equal an untimed serial run's."""
    if mode != "pool":
        return
    for op in CAMPAIGNS:
        reference = tally.attempt(op, "serial", seed)
        if reference is not None and reference["digest"] != digests[op]:
            tally.fail(f"{op}: pool campaign JSON differs from an untimed serial run")


def measure(mode: str, seed: int, seconds: float, tally: Tally) -> tuple:
    """Untraced runs: end-to-end metrics plus per-operation evidence."""
    samples: Dict[str, List[dict]] = {op: [] for op in OPS}
    # Up to MIN_SAMPLES rounds of every operation, then each next run goes
    # to the operation with the least process time so far: short
    # operations get more samples, and all stay interleaved in time.  After
    # the first round, only an operation whose mean process time still fits
    # before the deadline runs, which keeps a run near ``seconds`` even
    # when the host is slow.
    spent = {op: 0.0 for op in OPS}
    runs = {op: 0 for op in OPS}
    deadline = time.monotonic() + seconds
    while True:
        fits = [o for o in OPS
                if not runs[o] or time.monotonic() + spent[o] / runs[o] <= deadline]
        if not fits:
            break
        op = min(fits, key=lambda o: (runs[o] >= MIN_SAMPLES,
                                      runs[o] if runs[o] < MIN_SAMPLES else spent[o]))
        launched = time.monotonic()
        record = tally.attempt(op, mode, seed)
        spent[op] += time.monotonic() - launched
        runs[op] += 1
        if record is None:
            continue
        if samples[op] and not same_evidence(samples[op][0], record):
            tally.fail(f"{op}: output digest, counters or accuracy changed between runs")
            continue
        samples[op].append(record)
    missing = [op for op in OPS if not samples[op]]
    if missing:
        raise SystemExit(f"no successful sample of {missing}: {tally.failures}")
    check_pool_campaigns(mode, seed, {op: samples[op][0]["digest"] for op in CAMPAIGNS}, tally)

    # A shared host's speed drifts by up to 2x over minutes.  Each sample
    # is scaled by the probe timed around and inside it in the same process,
    # so times read as seconds on a host where the probe takes
    # REFERENCE_PROBE_S.
    def median_at_reference(recs: List[dict], key: str) -> float:
        return statistics.median(r[key] * REFERENCE_PROBE_S / r["probe_s"] for r in recs)

    op_s = {op: median_at_reference(recs, "op_s") for op, recs in samples.items()}
    setup = {op: median_at_reference(recs, "setup_s") for op, recs in samples.items()}
    metrics = {f"{op}_s": op_s[op] for op in OPS}
    metrics["wall_s"] = sum(op_s.values())
    metrics["setup_s"] = sum(setup.values())
    # Pool workers' peak RSS depends on which tasks each one drew, so an
    # operation's RSS is the median over its runs; the workload's is the
    # largest of those.
    metrics["peak_rss_mb"] = max(
        statistics.median(r["rss_mb"] for r in recs) for recs in samples.values())
    metrics["mfu_rel_err"] = samples["compare"][0]["accuracy"]["mfu_rel_err"]
    metrics["anchor_max_rel_err"] = samples["calibrate"][0]["accuracy"]["anchor_max_rel_err"]
    detail = {
        "ops": {
            op: {
                "samples": len(recs),
                "op_s": [r["op_s"] for r in recs],
                "setup_s": [r["setup_s"] for r in recs],
                "probe_s": [r["probe_s"] for r in recs],
                "rss_mb": [r["rss_mb"] for r in recs],
                "digest": recs[0]["digest"],
                "counters": recs[0]["counters"],
            }
            for op, recs in samples.items()
        },
    }
    return metrics, detail


def layer_metrics(records: Dict[str, dict]) -> Dict[str, float]:
    """Sum one traced pass's per-layer summaries over the operations."""
    layers: Dict[str, Dict[str, float]] = {}
    memo: Dict[str, List[int]] = {}
    for record in records.values():
        for name, values in record["trace"]["layers"].items():
            into = layers.setdefault(name, {})
            for key, value in values.items():
                into[key] = into.get(key, 0) + value
        for name, counts in record["memo"].items():
            memo[name] = [a + b for a, b in zip(memo.get(name, [0, 0, 0]), counts)]

    out: Dict[str, float] = {}
    for name, values in layers.items():
        for key, value in values.items():
            out[f"{name}.{key}"] = value
    search = layers.get("parallel.search_plans", {})
    if search.get("feasible"):
        out["parallel.search_plans.prune_rate"] = 1.0 - search["priced"] / search["feasible"]
    out["exec.run_tasks.wait_s"] = layers.get("exec.run_tasks", {}).get("self_s", 0.0)
    for name, (hits, misses, evictions) in memo.items():
        out[f"exec.memo.{name}.hits"] = hits
        out[f"exec.memo.{name}.misses"] = misses
        out[f"exec.memo.{name}.evictions"] = evictions
        out[f"exec.memo.{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["collectives.fabric_cost.hit_ratio"] = out.get(
        "exec.memo.fabric_collective_cost.hit_ratio", 0.0)
    return out


def counters_only(metrics: Dict[str, float]) -> Dict[str, float]:
    return {k: v for k, v in metrics.items() if not k.endswith(("self_s", "wait_s"))}


def measure_traced(mode: str, seed: int, tally: Tally) -> tuple:
    """One untraced and two traced passes per operation: layer metrics."""
    untraced: Dict[str, dict] = {}
    passes: List[Dict[str, dict]] = [{}, {}]
    for op in OPS:
        base = tally.attempt(op, mode, seed)
        runs = [tally.attempt(op, mode, seed, trace=True) for _ in passes]
        if base is None or None in runs:
            continue
        if not all(same_evidence(base, r) for r in runs):
            tally.fail(f"{op}: tracing changed the output digest, counters or accuracy")
            continue
        untraced[op] = base
        for into, record in zip(passes, runs):
            into[op] = record
    missing = [op for op in OPS if op not in untraced]
    if missing:
        raise SystemExit(f"no successful traced sample of {missing}: {tally.failures}")
    check_pool_campaigns(mode, seed, {op: untraced[op]["digest"] for op in CAMPAIGNS}, tally)

    first, second = (layer_metrics(p) for p in passes)
    if counters_only(first) != counters_only(second):
        tally.fail("the two traced passes disagree on per-layer counters")
    metrics = {k: (first[k] + second[k]) / 2 if k.endswith(("self_s", "wait_s")) else first[k]
               for k in first}
    detail: Dict[str, dict] = {}
    for op in OPS:
        roots = [p[op]["trace"]["root"] for p in passes]
        traced = statistics.median(r["traced_s"] for r in roots)
        metrics[f"op.{op}.traced_s"] = traced
        metrics[f"op.{op}.overhead_s"] = traced - untraced[op]["op_s"]
        metrics[f"op.{op}.unattributed_s"] = statistics.median(
            r["unattributed_s"] for r in roots)
        detail[op] = {
            "digest": untraced[op]["digest"],
            "untraced_s": untraced[op]["op_s"],
            "roots": roots,
            "layers": passes[0][op]["trace"]["layers"],
            "memo": passes[0][op]["memo"],
        }
    return metrics, {"ops": detail}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit so run_op's cleanup stops the operation.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    package = ROOT / "src" / "repro"
    if not (package / "__init__.py").is_file() or not (ROOT / "data" / "calibration").is_dir():
        print(f"error: no simulator sources at {package}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    # Byte-compile once so no measured interpreter pays for compilation.
    compileall.compile_dir(str(package), quiet=1)
    tally = Tally()
    if args.trace:
        metrics, detail = measure_traced(args.workload, args.seed, tally)
        wanted = spec["per_layer"]
    else:
        metrics, detail = measure(args.workload, args.seed, args.seconds, tally)
        wanted = spec["end_to_end"]
    detail["failures"] = tally.failures
    print(json.dumps({"detail": detail}, sort_keys=True))
    for message in tally.failures:
        print(f"FAILED: {message}", file=sys.stderr)
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {
            m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
