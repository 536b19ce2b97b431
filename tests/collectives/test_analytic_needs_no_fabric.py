"""The analytic backend prices from a Topology; only the fabric backend
builds a ClosFabric."""

import pytest

from repro.calibration import calibration_report, load_anchors
from repro.collectives import GroupCommModel, build_comm_model
from repro.core import compare
from repro.core.config import TrainingJob
from repro.exec.memo import clear_caches
from repro.network.topology import ClosFabric, Topology
from repro.parallel.plan import ParallelPlan


@pytest.fixture
def fabric_builds(monkeypatch):
    """Count ClosFabric constructions, starting from cold memo caches."""
    clear_caches()
    built = []
    original = ClosFabric.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args or kwargs)
        original(self, *args, **kwargs)

    monkeypatch.setattr(ClosFabric, "__init__", counting_init)
    yield built
    clear_caches()  # drop results priced while the constructor was patched


def test_analytic_compare_at_paper_scale_builds_no_fabric(fabric_builds):
    job = TrainingJob(model="gpt-175b", n_gpus=12288, global_batch=6144, tp=8, pp=8, vpp=6)
    result = compare(job, backend="analytic")
    assert result.speedup > 1.0
    assert fabric_builds == []


def test_analytic_calibration_anchor_builds_no_fabric(fabric_builds):
    report = calibration_report(load_anchors()[:1])
    assert len(report.rows) == 1
    assert fabric_builds == []


def test_fabric_backend_attaches_a_fabric(fabric_builds):
    plan = ParallelPlan(dp=4, tp=8, pp=1)
    analytic = build_comm_model(plan)
    assert analytic.fabric is None
    assert analytic.topology == Topology.for_pods(4)
    fabric = build_comm_model(plan, backend="fabric")
    assert len(fabric_builds) == 1
    assert fabric.fabric.topology == analytic.topology


def test_fabric_backend_without_a_fabric_rejected():
    with pytest.raises(ValueError, match="ClosFabric"):
        GroupCommModel(plan=ParallelPlan(dp=2, tp=8, pp=1), topology=Topology(2), backend="fabric")
