"""End-to-end tests for the root-cause attribution engine."""

import pytest

from repro.observability import diagnose_files, diagnose_hub
from repro.observability.diagnosis import (
    SCENARIOS,
    TRUE_CAUSE,
    DiagnosisEngine,
    TelemetryView,
    diagnose_scenario,
    run_scenario,
)
from repro.observability.hang import simulate_timeout_logs
from repro.parallel import ParallelPlan


# -- injected-cause attribution (the acceptance criterion) -------------------


@pytest.mark.parametrize("name", [s for s in SCENARIOS if s != "clean"])
def test_top_finding_blames_the_injected_cause(name):
    report = diagnose_scenario(name, seed=0)
    assert not report.clean
    assert report.top() is not None
    assert report.top().cause == TRUE_CAUSE[name]


def test_clean_run_yields_zero_findings():
    report = diagnose_scenario("clean", seed=0)
    assert report.clean
    assert report.findings == []
    assert report.anomalies == []
    assert report.residuals == []


def test_reports_are_byte_identical_per_seed():
    for name in ("straggler", "preemption"):
        assert (
            diagnose_scenario(name, seed=2).to_json()
            == diagnose_scenario(name, seed=2).to_json()
        )


def test_seed_moves_the_onset_but_not_the_verdict():
    starts = set()
    for seed in (0, 1, 2):
        report = diagnose_scenario("tor-blast", seed=seed)
        assert report.top().cause == "tor-blast"
        starts.add(report.top().start)
    assert len(starts) > 1  # the fault actually moved


# -- saved-trace parity ------------------------------------------------------


def test_saved_trace_diagnosis_matches_live(tmp_path):
    hub = run_scenario("ecmp-collision", seed=1)
    live = diagnose_hub(hub)
    path = tmp_path / "session.json"
    hub.save(str(path))
    loaded = diagnose_files(str(path))
    assert loaded.to_json() == live.to_json()
    assert loaded.top().cause == "ecmp-collision"


def test_view_from_document_reconstructs_lanes(tmp_path):
    hub = run_scenario("straggler", seed=0)
    path = tmp_path / "session.json"
    hub.save(str(path))
    view = TelemetryView.from_files(str(path))
    assert "training" in view.subsystems()
    assert view.spans("training", name="expectation")
    assert len(view.spans("training", name="iteration")) == 24
    assert view.gauge("training.mfu")
    assert view.end_time() > 0


def test_view_without_sidecar_falls_back_to_counter_events(tmp_path):
    hub = run_scenario("straggler", seed=0)
    trace = tmp_path / "t.json"
    hub.save(str(trace), metrics_path=str(tmp_path / "elsewhere.jsonl"))
    # No .metrics.jsonl next to the trace: gauges come from 'C' events.
    view = TelemetryView.from_files(str(trace))
    assert view.gauge("training.mfu")


# -- evidence folding --------------------------------------------------------


def test_straggler_evidence_names_the_slow_stage():
    for seed in (0, 1):
        report = diagnose_scenario("straggler", seed=seed)
        top = report.top()
        assert top.cause == "straggler"
        assert top.details["outlier_ranks"] == [seed % 4]


def test_tor_blast_names_the_domain():
    report = diagnose_scenario("tor-blast", seed=1)
    top = report.top()
    assert top.details["domain"] == "tor1"
    assert top.details["blast_radius"] == 4


def test_hang_localizer_folds_in_as_candidate():
    plan = ParallelPlan(dp=2, tp=2, pp=4, vpp=1)
    hub = run_scenario("clean", seed=0)
    logs = simulate_timeout_logs(plan, faulty_ranks=[5])
    view = TelemetryView.from_hub(hub)
    # A hang plus an MFU collapse: the hub is clean, so graft the anomaly.
    hub.sample("training", "mfu", 60.0, 0.0)
    hub.sample("training", "mfu", 61.0, 0.0)
    view = TelemetryView.from_hub(hub)
    report = DiagnosisEngine(view, plan=plan, timeout_logs=logs).run()
    assert report.top() is not None
    assert report.top().cause == "nccl-hang"
    assert report.top().details["hung_ranks"] == [5]


def test_uncorroborated_side_events_stay_silent():
    # A fault instant with no anomaly/residual anywhere must not produce
    # findings (the clean gate is window-driven, not event-driven).
    hub = run_scenario("clean", seed=0)
    hub.instant("network", "link-down", 5.0, rank=3)
    report = diagnose_hub(hub)
    assert report.clean
    assert report.findings == []


def test_dominant_term_bonus_ranks_matching_cause_first():
    report = diagnose_scenario("ecmp-collision", seed=0)
    causes = [f.cause for f in report.findings]
    assert causes[0] == "ecmp-collision"
    assert report.dominant_term == "dp_exposed"
    # The generic term-drift candidate survives but ranks below.
    assert "network-congestion" in causes[1:]


def test_report_json_is_machine_readable():
    report = diagnose_scenario("data-stall", seed=0)
    data = report.to_dict()
    assert data["findings"][0]["cause"] == "data-pipeline-stall"
    assert data["clean"] is False
    assert set(data) == {
        "clean", "dominant_term", "term_excess_seconds", "anomalies",
        "changepoints", "residual_windows", "findings",
    }
