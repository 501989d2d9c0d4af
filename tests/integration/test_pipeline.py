"""End-to-end pipeline supervisor: crash anywhere, resume, same bytes.

The ISSUE acceptance criterion pinned here: a pipeline killed mid-synth
and again mid-check, then resumed, produces a ``model.uarch`` and a
``report.json`` byte-identical to an uninterrupted run.  Uses the
unicore design (synthesis in seconds) and deterministic injected
interrupts instead of real signals.
"""

import hashlib
import json

import pytest

from repro.errors import InterruptedRun, PipelineError
from repro.pipeline import PipelineConfig, run_pipeline
from repro.resilience import FaultPlan


def _sha256(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _config(state_dir, **overrides):
    base = dict(state_dir=str(state_dir), design="unicore", jobs=2)
    base.update(overrides)
    return PipelineConfig(**base)


@pytest.fixture(scope="module")
def clean_run(tmp_path_factory):
    state = tmp_path_factory.mktemp("pipeline-clean")
    result = run_pipeline(_config(state))
    return {
        "result": result,
        "model_sha": _sha256(result.model_path),
        "report_sha": _sha256(result.report_path),
    }


class TestCleanPipeline:
    def test_produces_model_and_report(self, clean_run):
        result = clean_run["result"]
        assert result.verdicts
        assert len(result.digest) == 64
        assert result.stages_resumed == []
        report = json.loads(open(result.report_path).read())
        assert report["schema"] == "repro-check-suite/5"
        assert report["digest"] == result.digest
        assert report["model"] == "model.uarch"  # no state-dir path leak
        assert "time_ms" not in report["tests"][0]  # deterministic bytes

    def test_rerun_with_resume_skips_both_stages(self, clean_run):
        result = run_pipeline(_config(
            clean_run["result"].model_path.rsplit("/", 1)[0], resume=True))
        assert set(result.stages_resumed) == {"synth", "check"}
        assert result.digest == clean_run["result"].digest
        assert _sha256(result.report_path) == clean_run["report_sha"]


class TestKillAndResume:
    def test_interrupted_mid_synth_and_mid_check_resumes_to_same_bytes(
            self, clean_run, tmp_path):
        state = tmp_path / "pipeline-faulted"
        # Attempt 0: die partway through SVA discharge.
        synth_kill = _config(
            state, synth_fault_plan=FaultPlan(interrupts=frozenset({5})))
        with pytest.raises(InterruptedRun) as excinfo:
            run_pipeline(synth_kill)
        assert excinfo.value.resumable
        # Attempt 1: synth completes on resume; die partway through check.
        check_kill = _config(
            state, resume=True,
            check_fault_plan=FaultPlan(interrupts=frozenset({10})))
        with pytest.raises(InterruptedRun) as excinfo:
            run_pipeline(check_kill)
        assert excinfo.value.resumable
        # Attempt 2: clean resume runs to completion.
        result = run_pipeline(_config(state, resume=True))
        assert "synth" in result.stages_resumed
        assert _sha256(result.model_path) == clean_run["model_sha"]
        assert _sha256(result.report_path) == clean_run["report_sha"]
        assert result.digest == clean_run["result"].digest

    def test_interrupted_mid_check_only(self, clean_run, tmp_path):
        state = tmp_path / "pipeline-check-kill"
        with pytest.raises(InterruptedRun):
            run_pipeline(_config(
                state,
                check_fault_plan=FaultPlan(interrupts=frozenset({30}))))
        result = run_pipeline(_config(state, resume=True))
        assert result.stages_resumed == ["synth"]
        assert _sha256(result.report_path) == clean_run["report_sha"]


class TestCheckpointIntegrity:
    def test_tampered_model_artifact_is_refused(self, tmp_path):
        state = tmp_path / "pipeline-tamper"
        run_pipeline(_config(state))
        model_path = state / "model.uarch"
        model_path.write_text(model_path.read_text() + "% edited\n")
        with pytest.raises(PipelineError, match="checksum"):
            run_pipeline(_config(state, resume=True))

    def test_missing_report_artifact_is_refused(self, tmp_path):
        state = tmp_path / "pipeline-missing"
        run_pipeline(_config(state))
        (state / "report.json").unlink()
        with pytest.raises(PipelineError, match="missing"):
            run_pipeline(_config(state, resume=True))

    def test_unknown_design_is_rejected(self, tmp_path):
        with pytest.raises(PipelineError, match="unknown design"):
            run_pipeline(_config(tmp_path / "x", design="hexacore"))
