"""The §5 observability examples run end to end as a user runs them."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.observability import lane_recorder

ROOT = Path(__file__).resolve().parent.parent


def run_example(name, tmp_path, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "examples" / name), *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize(
    "name", ["straggler_hunt.py", "telemetry_pipeline.py", "diagnose_anomaly.py"]
)
def test_example_exits_cleanly(name, tmp_path):
    proc = run_example(name, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_trace_export_writes_the_training_lane(tmp_path):
    proc = run_example("trace_export.py", tmp_path, "trace.json")
    assert proc.returncode == 0, proc.stderr
    document = json.loads((tmp_path / "trace.json").read_text())
    spans = lane_recorder(document, "training")
    per_stage = Counter(s.rank for s in spans if s.name in ("F", "B"))
    # 8 stages, each 16 micro-batches x 2 model chunks x (F + B).
    assert per_stage == {stage: 16 * 2 * 2 for stage in range(8)}
