"""End-to-end pipeline supervisor: parse → synth → check, crash-safe.

``repro pipeline`` runs the paper's whole artifact flow — elaborate
the RTL, synthesize a µspec model, verify the litmus suite — as three
supervised stages with durable checkpoints in a state directory:

* ``pipeline.json`` — the stage ledger, written atomically (temp file
  + rename) after every stage transition.  Each completed stage
  records its artifact path and SHA-256, so a resumed pipeline can
  *verify* a checkpoint instead of trusting it: a tampered or
  half-written artifact raises :class:`repro.errors.PipelineError`
  rather than silently poisoning downstream stages.
* ``synth.jsonl`` — the file of the formal layer's verdict store (the
  format ``synth --cache`` reads).  A pipeline killed mid-synthesis
  resumes without re-discharging a single recorded SVA.
* ``check.jsonl`` — the Check layer's suite journal.  A pipeline
  killed mid-verification resumes without re-solving a single
  journaled litmus test.

The contract (pinned by the pipeline integration tests): kill the
pipeline at *any* point — mid-synth, mid-check, between stages — and
``resume=True`` reaches the same final ``model.uarch`` and
``report.json`` byte-for-byte.  The report is written in the
deterministic mode (no timings, no job counts), which is what makes
byte-equality meaningful.

Parsing is re-run on every invocation (elaboration is cheap and the
netlists live only in memory); its checkpoint records the netlist
content fingerprints so a resumed run detects a changed design instead
of mixing artifacts from two different RTL versions.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from .errors import InterruptedRun, PipelineError
from .resilience import Budget, FaultPlan

STATE_SCHEMA = "repro-pipeline-state/1"
STAGES = ("parse", "synth", "check")
DESIGNS = ("multi", "unicore")


@dataclass
class PipelineConfig:
    """Everything one pipeline run needs, picklable and explicit."""

    state_dir: str
    design: str = "multi"
    resume: bool = False
    jobs: int = 1
    #: check-stage solving engine ("fresh" | "incremental")
    engine: str = "fresh"
    #: per-litmus-test wall-clock budget (None = unlimited)
    check_timeout: Optional[float] = None
    #: per-SVA wall-clock budget for synthesis (None = unlimited)
    synth_timeout: Optional[float] = None
    #: synthesis parameters; None = the design preset's defaults
    bound: Optional[int] = None
    max_k: Optional[int] = None
    candidates: Optional[List[str]] = None
    #: test hooks: wrap the property checker (e.g. fault injection) and
    #: inject deterministic faults into the check stage's pool
    checker_factory: Optional[Callable[[object], object]] = None
    check_fault_plan: Optional[FaultPlan] = None
    #: progress sink (the CLI passes print; tests leave it silent)
    echo: Callable[[str], None] = lambda _line: None


@dataclass
class PipelineResult:
    """Outcome of a completed pipeline run."""

    model_path: str
    report_path: str
    verdicts: List = field(default_factory=list)
    digest: str = ""
    #: stages served from checkpoints without re-execution
    stages_resumed: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return bool(self.verdicts) and all(v.passed for v in self.verdicts)


def design_preset(design: str):
    """(sim_netlist, formal_netlist, metadata, bound, max_k, candidates,
    formal_cores) for a bundled design name — shared by the pipeline
    supervisor and the service's synth/parse jobs."""
    if design not in DESIGNS:
        raise PipelineError(f"unknown design {design!r} "
                            f"(expected one of {DESIGNS})")
    if design == "unicore":
        from .designs import load_unicore, unicore_metadata
        return (load_unicore(), load_unicore(formal=True),
                unicore_metadata(), 10, 1,
                ["ir_de", "gpr", "dstore.cells"], 1)
    from .designs import FORMAL_CONFIG, SIM_CONFIG, load_design
    from .designs import multi_vscale_metadata
    return (load_design(SIM_CONFIG), load_design(FORMAL_CONFIG),
            multi_vscale_metadata(SIM_CONFIG), 12, 2, None, 2)


def _sha256_file(path: str) -> str:
    hasher = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            hasher.update(chunk)
    return hasher.hexdigest()


def _atomic_write_json(path: str, payload: Dict) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".state-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


class Pipeline:
    """One supervised parse → synth → check run over a state directory."""

    def __init__(self, config: PipelineConfig):
        if config.design not in DESIGNS:
            raise PipelineError(f"unknown design {config.design!r} "
                                f"(expected one of {DESIGNS})")
        self.config = config
        os.makedirs(config.state_dir, exist_ok=True)
        self.state_path = os.path.join(config.state_dir, "pipeline.json")
        self.model_path = os.path.join(config.state_dir, "model.uarch")
        self.report_path = os.path.join(config.state_dir, "report.json")
        self.synth_journal = os.path.join(config.state_dir, "synth.jsonl")
        self.check_journal = os.path.join(config.state_dir, "check.jsonl")
        self.state = self._load_state()
        self.stages_resumed: List[str] = []

    # ------------------------------------------------------------------
    # State ledger
    # ------------------------------------------------------------------
    def _load_state(self) -> Dict:
        if self.config.resume and os.path.exists(self.state_path):
            try:
                with open(self.state_path, "r", encoding="utf-8") as handle:
                    state = json.load(handle)
            except (OSError, ValueError) as exc:
                raise PipelineError(
                    f"unreadable pipeline state {self.state_path}: {exc}")
            if state.get("schema") != STATE_SCHEMA:
                raise PipelineError(
                    f"{self.state_path} is not a pipeline state file "
                    f"(schema {state.get('schema')!r})")
            if state.get("design") != self.config.design:
                raise PipelineError(
                    f"pipeline state was recorded for design "
                    f"{state.get('design')!r}, not {self.config.design!r}; "
                    f"use a fresh --state-dir")
            return state
        return {"schema": STATE_SCHEMA, "design": self.config.design,
                "stages": {}}

    def _save_state(self) -> None:
        _atomic_write_json(self.state_path, self.state)

    def _stage(self, name: str) -> Dict:
        return self.state["stages"].get(name, {})

    def _stage_done(self, name: str) -> bool:
        return self._stage(name).get("status") == "done"

    def _mark_done(self, name: str, **record) -> None:
        self.state["stages"][name] = dict(record, status="done")
        self._save_state()

    def _verify_artifact(self, stage: str) -> None:
        """A completed stage's artifact must still match its recorded
        checksum — resume never trusts bytes it cannot verify."""
        record = self._stage(stage)
        path = record.get("artifact")
        if not path or not os.path.exists(path):
            raise PipelineError(
                f"stage {stage!r} is marked done but its artifact "
                f"{path!r} is missing; remove {self.state_path} to rerun")
        digest = _sha256_file(path)
        if digest != record.get("sha256"):
            raise PipelineError(
                f"stage {stage!r} artifact {path} does not match its "
                f"recorded checksum (expected {record.get('sha256')}, "
                f"found {digest}); the checkpoint is corrupt or was "
                f"edited — remove {self.state_path} to rerun")

    # ------------------------------------------------------------------
    # Stages
    # ------------------------------------------------------------------
    def _design_preset(self):
        """See :func:`design_preset` (module level, shared with the
        service's jobs)."""
        return design_preset(self.config.design)

    def _run_parse(self):
        """Elaborate the design; verify fingerprints against any prior
        run of this state directory."""
        from .netlist import netlist_fingerprint
        self.config.echo(f"[parse] elaborating design "
                         f"{self.config.design!r}")
        preset = self._design_preset()
        sim_netlist, formal_netlist = preset[0], preset[1]
        fingerprints = {
            "sim": netlist_fingerprint(sim_netlist),
            "formal": netlist_fingerprint(formal_netlist),
        }
        previous = self._stage("parse")
        if previous.get("status") == "done" and \
                previous.get("fingerprints") != fingerprints:
            raise PipelineError(
                "the design's netlists changed since this pipeline state "
                "was recorded; its synth/check checkpoints would be stale "
                f"— use a fresh --state-dir (state: {self.state_path})")
        self._mark_done("parse", fingerprints=fingerprints)
        return preset

    def _run_synth(self, preset) -> None:
        if self._stage_done("synth"):
            self._verify_artifact("synth")
            self.stages_resumed.append("synth")
            self.config.echo(f"[synth] checkpoint verified: "
                             f"{self.model_path} (skipped)")
            return
        from .core.synthesizer import Rtl2Uspec
        from .formal import PropertyChecker, VerdictStore
        from .uspec import format_model
        sim_netlist, formal_netlist, metadata, bound, max_k, candidates, \
            formal_cores = preset
        bound = self.config.bound if self.config.bound is not None else bound
        max_k = self.config.max_k if self.config.max_k is not None else max_k
        if self.config.candidates is not None:
            candidates = self.config.candidates
        checker = PropertyChecker(bound=bound, max_k=max_k)
        if self.config.checker_factory is not None:
            checker = self.config.checker_factory(checker)
        resume = os.path.exists(self.synth_journal) and self.config.resume
        verdicts = VerdictStore(self.synth_journal, resume=resume)
        if verdicts.quarantined_records:
            self.config.echo(
                f"[synth] warning: {verdicts.quarantined_records} corrupt "
                f"journal record(s) quarantined to {verdicts.quarantined}; "
                f"they will be re-executed")
        if resume and len(verdicts):
            self.config.echo(f"[synth] resuming: {len(verdicts)} verdict(s) "
                             f"replayed from {self.synth_journal}")
        else:
            self.config.echo("[synth] synthesizing µspec model")
        try:
            with Rtl2Uspec(sim_netlist, formal_netlist, metadata,
                           checker=checker, formal_cores=formal_cores,
                           candidate_filter=candidates,
                           jobs=self.config.jobs, verdicts=verdicts,
                           check_timeout=self.config.synth_timeout
                           ) as synthesizer:
                result = synthesizer.synthesize()
        except KeyboardInterrupt as exc:
            raise InterruptedRun(
                f"pipeline interrupted during synth; {len(verdicts)} "
                f"verdict(s) checkpointed in {self.synth_journal}",
                resumable=True) from exc
        finally:
            verdicts.close()
        text = format_model(result.model)
        with open(self.model_path, "w", encoding="utf-8") as handle:
            handle.write(text)
        self._mark_done("synth", artifact=self.model_path,
                        sha256=_sha256_file(self.model_path))
        self.config.echo(f"[synth] model written to {self.model_path}")

    def _run_check(self) -> List:
        from .check import run_suite, suite_report_json
        from .litmus import load_suite
        from .uspec import parse_model
        # Always verify against the *artifact* (not the in-memory
        # model), so fresh and resumed runs key their journals — and
        # produce their reports — from the exact same bytes.
        with open(self.model_path, "r", encoding="utf-8") as handle:
            model = parse_model(handle.read())
        tests = load_suite()
        if self._stage_done("check"):
            # Verdicts still need re-deriving (journal replay makes it
            # cheap) so the PipelineResult carries them; only solving
            # is skipped.
            self._verify_artifact("check")
            self.stages_resumed.append("check")
            self.config.echo(f"[check] checkpoint verified: "
                             f"{self.report_path}")
        resume = os.path.exists(self.check_journal) and self.config.resume
        budget = Budget(timeout_seconds=self.config.check_timeout) \
            if self.config.check_timeout else None
        self.config.echo(f"[check] verifying {len(tests)} litmus test(s)")
        try:
            run = run_suite(model, tests, jobs=self.config.jobs,
                            engine=self.config.engine, budget=budget,
                            journal_path=self.check_journal, resume=resume,
                            fault_plan=self.config.check_fault_plan)
        except KeyboardInterrupt as exc:
            raise InterruptedRun(
                "pipeline interrupted during check; completed verdicts "
                f"are checkpointed in {self.check_journal}",
                resumable=True) from exc
        if run.quarantined_records:
            self.config.echo(
                f"[check] warning: {run.quarantined_records} corrupt "
                f"journal record(s) quarantined to {run.quarantined_path}; "
                f"they were re-executed")
        if run.resumed:
            self.config.echo(f"[check] resumed: {run.resumed} verdict(s) "
                             f"replayed from {self.check_journal}")
        # The deterministic report names the model by basename: the
        # state directory's path must not leak into checkpointed bytes.
        report = suite_report_json(run.verdicts,
                                   model=os.path.basename(self.model_path),
                                   engine=self.config.engine,
                                   engine_used=run.engine_used,
                                   deterministic=True)
        payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
        with open(self.report_path, "w", encoding="utf-8") as handle:
            handle.write(payload)
        self._mark_done("check", artifact=self.report_path,
                        sha256=_sha256_file(self.report_path),
                        digest=report["digest"])
        self.config.echo(f"[check] report written to {self.report_path}")
        return run.verdicts

    # ------------------------------------------------------------------
    def run(self) -> PipelineResult:
        """Execute (or resume) the pipeline; see the module docstring.

        Raises :class:`InterruptedRun` on Ctrl-C/SIGTERM (state and
        journals committed — re-run with ``resume=True``) and
        :class:`PipelineError` when a checkpoint fails verification.
        """
        preset = self._run_parse()
        self._run_synth(preset)
        verdicts = self._run_check()
        return PipelineResult(
            model_path=self.model_path,
            report_path=self.report_path,
            verdicts=verdicts,
            digest=self._stage("check").get("digest", ""),
            stages_resumed=list(self.stages_resumed),
        )


def run_pipeline(config: PipelineConfig) -> PipelineResult:
    """Convenience wrapper: build and run one :class:`Pipeline`."""
    return Pipeline(config).run()
