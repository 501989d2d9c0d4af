"""CLI smoke tests (fast subcommands only)."""

import pytest

from repro.cli import main


def test_version(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0


def test_stats(capsys):
    assert main(["stats"]) == 0
    out = capsys.readouterr().out
    assert "registers" in out
    assert "4 cores" in out


def test_litmus_names(capsys):
    assert main(["litmus", "--names"]) == 0
    out = capsys.readouterr().out.split()
    assert "mp" in out and "sb" in out
    assert len(out) == 56


def test_litmus_full_format(capsys):
    assert main(["litmus"]) == 0
    out = capsys.readouterr().out
    assert "RISCV mp" in out
    assert "exists" in out


def test_run_subcommand(capsys):
    assert main(["run", "corw", "--max-skew", "0"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_missing_subcommand_errors():
    with pytest.raises(SystemExit):
        main([])


def test_check_with_reference_model(capsys, reference_model):
    assert main(["check", "mp", "sb"]) == 0
    out = capsys.readouterr().out
    assert "ALL TESTS PASS" in out
    assert "ALL TESTS PASSES" not in out


def test_check_unknown_test_suggests_close_match(capsys, reference_model):
    assert main(["check", "mpp"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "unknown litmus test" in err
    assert "mpp" in err
    assert "mp" in err  # close-match suggestion


def test_check_unknown_test_without_close_match(capsys, reference_model):
    assert main(["check", "zzzzqqqq"]) == 2
    err = capsys.readouterr().err
    assert "unknown litmus test" in err
    assert "zzzzqqqq" in err


def test_check_bad_fault_spec_is_usage_error(capsys, reference_model):
    assert main(["check", "mp", "--inject-faults", "explode:1"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "explode" in err


def test_check_injected_interrupt_exits_130_and_resumes(
        capsys, reference_model, tmp_path):
    import shlex
    argv = ["check", "mp", "sb", "lb", "--cache", str(tmp_path / "c.jsonl")]
    code = main(argv + ["--inject-faults", "interrupt:1"])
    captured = capsys.readouterr()
    assert code == 130
    assert "interrupted" in captured.err
    # resume hint: the same command
    assert f"resume with: rtl2uspec {shlex.join(argv)} --inject-faults " \
        f"interrupt:1" in captured.err
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "resumed: 1 verdict(s) replayed" in out
    assert "ALL TESTS PASS" in out


def test_check_inline_hard_crash_is_retried_not_fatal(capsys,
                                                     reference_model):
    # A hard crash (the default plan) kills only pool workers; at
    # --jobs 1 the task runs in this process, so it raises and retries.
    assert main(["check", "--jobs", "1", "--inject-faults", "crash:0",
                 "mp", "sb"]) == 0
    out = capsys.readouterr().out
    assert "ALL TESTS PASS" in out
    assert "1 crash(es)" in out
    assert "1 retried" in out


def test_check_interrupt_without_journal_is_not_resumable(
        capsys, reference_model):
    assert main(["check", "mp", "sb",
                 "--inject-faults", "interrupt:0"]) == 130
    err = capsys.readouterr().err
    assert "--cache" in err  # points at how to make runs resumable


def test_check_budget_expiry_is_conservative(capsys, reference_model):
    assert main(["check", "mp", "--timeout", "0.0000001"]) == 1
    out = capsys.readouterr().out
    assert "TIMEOUT" in out
    assert "UNDECIDED" in out
    assert "ALL TESTS PASS" not in out


def test_show_graph_names_undecided_tests(capsys, reference_model):
    assert main(["check", "mp", "sb", "--show-graph",
                 "--timeout", "0.000001"]) == 1
    out = capsys.readouterr().out
    assert "unobservable" not in out
    assert "== mp: undecided (TIMEOUT, budget exhausted); no graph ==" in out
    assert "== sb: undecided (TIMEOUT, budget exhausted); no graph ==" in out


def test_show_graph_names_replayed_observable_verdicts(capsys, tmp_path):
    from repro.designs.models import load_reference_model
    from repro.uspec import format_model
    # Without its value axiom the model makes mp's outcome observable.
    model = load_reference_model()
    model.axioms = [a for a in model.axioms if a.name != "Read_Values"]
    path = tmp_path / "permissive.uarch"
    path.write_text(format_model(model))
    cache = str(tmp_path / "check.jsonl")
    argv = ["check", "mp", "--model", str(path), "--show-graph",
            "--cache", cache]
    assert main(argv) == 1
    assert "== witness µhb graph: mp ==" in capsys.readouterr().out
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert "replayed from --cache" in out
    assert "unobservable" not in out


def test_check_report_json(capsys, reference_model, tmp_path):
    path = tmp_path / "report.json"
    assert main(["check", "mp", "sb", "--report-json", str(path)]) == 0
    import json
    report = json.loads(path.read_text())
    assert report["schema"] == "repro-check-suite/5"
    assert "engine" not in report and "engine_used" not in report
    assert "sat_core" not in report
    assert report["undecided"] == 0
    assert report["failures"] == 0
    assert len(report["digest"]) == 64
    assert [t["name"] for t in report["tests"]] == ["mp", "sb"]
    assert report["tests"][0]["stats"]["clauses"] > 0


def test_warm_synth_cache_reruns_no_refutation(capsys, tmp_path):
    """A warm ``synth --cache`` serves cached refutations as they are:
    neither the report nor the .uarch reads a counterexample trace."""
    cache = str(tmp_path / "verdicts.jsonl")
    argv = ["synth", "--bound", "4", "--max-k", "1", "--candidates",
            "core_gen[0].core.inst_DX,the_mem.mem", "--cache", cache]
    assert main(argv + ["-o", str(tmp_path / "cold.uarch")]) == 0
    cold = capsys.readouterr().out
    assert " refuted" in cold and " 0 refuted" not in cold
    assert main(argv + ["-o", str(tmp_path / "warm.uarch")]) == 0
    warm = capsys.readouterr().out
    assert "0 misses" in warm
    assert (tmp_path / "warm.uarch").read_bytes() == \
        (tmp_path / "cold.uarch").read_bytes()


def test_interrupted_synth_resumes_from_its_cache(capsys, tmp_path,
                                                  monkeypatch):
    """The ``--cache`` file is the checkpoint: an interrupted synth
    exits 130 with the command to re-run, and re-running it serves the
    batches decided before the interrupt from the file."""
    import shlex

    from repro.formal import VerdictStore
    from repro.formal.scheduler import DischargeScheduler

    cache = str(tmp_path / "verdicts.jsonl")
    scope = ["synth", "--jobs", "1", "--bound", "4", "--max-k", "1",
             "--candidates", "core_gen[0].core.inst_DX,the_mem.mem"]
    argv = scope + ["--cache", cache, "-o", str(tmp_path / "resumed.uarch")]
    run_pool = DischargeScheduler._run_pool
    batches = []

    def interrupt_second_batch(self, batch, to_run, *args):
        batches.append(len(to_run))
        if len(batches) == 2:
            raise KeyboardInterrupt
        return run_pool(self, batch, to_run, *args)

    monkeypatch.setattr(DischargeScheduler, "_run_pool",
                        interrupt_second_batch)
    assert main(argv) == 130
    err = capsys.readouterr().err
    assert f"resume with: rtl2uspec {shlex.join(argv)}" in err
    with VerdictStore(cache) as kept:
        assert len(kept) == batches[0] > 0

    monkeypatch.setattr(DischargeScheduler, "_run_pool", run_pool)
    assert main(argv) == 0
    resumed = capsys.readouterr().out
    hits = int(resumed.rsplit("verdict cache: ", 1)[1].split(" hits")[0])
    assert hits >= batches[0]
    assert main(scope + ["-o", str(tmp_path / "uninterrupted.uarch")]) == 0
    assert (tmp_path / "resumed.uarch").read_bytes() == \
        (tmp_path / "uninterrupted.uarch").read_bytes()


class TestGenerateCli:
    def test_streams_named_programs(self, capsys):
        assert main(["generate", "threads=2,len=2", "--count", "5"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert len(lines) == 5
        assert all(line.startswith("gen-") for line in lines)
        assert "corpus digest" in captured.err

    def test_digest_deterministic(self, capsys):
        def digest():
            assert main(["generate", "threads=2,len=2,fences=enum",
                         "--count", "40", "--names"]) == 0
            err = capsys.readouterr().err
            return err.rsplit("corpus digest", 1)[1].strip()
        assert digest() == digest()

    def test_exhausted_corpus_exits_2(self, capsys):
        assert main(["generate", "threads=1,len=1", "--count", "100"]) == 2
        err = capsys.readouterr().err
        assert "corpus exhausted" in err

    def test_bad_spec_exits_2(self, capsys):
        assert main(["generate", "threads=zero"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_tests_mode_emits_litmus_format(self, capsys):
        assert main(["generate", "threads=2,len=2", "--count", "2",
                     "--tests"]) == 0
        out = capsys.readouterr().out
        assert "RISCV gen-" in out
        assert "exists" in out

    def test_export_writes_test_files(self, tmp_path, capsys):
        out_dir = str(tmp_path / "corpus")
        assert main(["generate", "threads=2,len=2", "--count", "3",
                     "--tests", "--export", out_dir]) == 0
        files = sorted((tmp_path / "corpus").iterdir())
        assert len(files) == 3
        assert all(f.suffix == ".test" for f in files)


class TestSweepGenerateCli:
    def test_generated_sweep_digest_matches_across_jobs(
            self, tmp_path, capsys, reference_model):
        import json
        digests = {}
        for jobs in ("1", "2"):
            report = str(tmp_path / f"rep{jobs}.json")
            assert main(["sweep", "--generate", "threads=2,len=2",
                         "--limit", "12", "--chunk", "5",
                         "--jobs", jobs, "--report-json", report]) == 0
            capsys.readouterr()
            with open(report, "r", encoding="utf-8") as handle:
                digests[jobs] = json.load(handle)["digest"]
        assert digests["1"] == digests["2"]

    def test_interrupted_chunked_sweep_resumes_by_rerunning(
            self, tmp_path, capsys, reference_model):
        """One ``--cache`` store spans every chunk: interrupted in the
        second chunk, the same command (without the fault) replays
        every program decided before the interrupt."""
        import json
        import shlex

        from repro.check import SWEEP_CODEC
        from repro.formal import VerdictStore
        sweep = ["sweep", "--generate", "threads=2,len=2", "--limit", "20",
                 "--chunk", "7"]
        clean = tmp_path / "clean.json"
        assert main(sweep + ["--report-json", str(clean)]) == 0
        cache = str(tmp_path / "sweep.jsonl")
        argv = sweep + ["--cache", cache]
        faulted = argv + ["--inject-faults", "interrupt:10"]
        assert main(faulted) == 130
        err = capsys.readouterr().err
        assert f"resume with: rtl2uspec {shlex.join(faulted)}" in err
        with VerdictStore(cache, codec=SWEEP_CODEC) as store:
            decided = len(store)
        assert decided == 10  # chunk 1 (7) and 3 programs of chunk 2
        resumed = tmp_path / "resumed.json"
        assert main(argv + ["--report-json", str(resumed)]) == 0
        payload = json.loads(resumed.read_text())
        assert payload["resumed"] == decided
        assert payload["digest"] == json.loads(clean.read_text())["digest"]


class TestBugmatrixCli:
    def test_clean_design_subset_passes(self, tmp_path, capsys):
        out = str(tmp_path / "matrix.json")
        assert main(["bugmatrix", "--designs", "clean", "--out", out]) == 0
        printed = capsys.readouterr().out
        assert "PASS" in printed
        import json
        with open(out, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["ok"] is True
        assert list(payload["designs"]) == ["clean"]

    def test_unknown_design_exits_2(self, capsys):
        assert main(["bugmatrix", "--designs", "nosuch"]) == 2
        assert "unknown bugmatrix design" in capsys.readouterr().err
