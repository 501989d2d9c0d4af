"""Command-line interface: ``rtl2uspec`` / ``python -m repro``.

Subcommands mirror the paper's artifact workflow (appendix A.4):

* ``synth``  — synthesize a µspec model from the bundled multi-V-scale
  (or any Verilog file + metadata preset) and write a ``.uarch`` file.
* ``check``  — run the litmus suite (or named tests) against a µspec
  model with the Check-style verifier.
* ``sweep``  — exhaustive small-program exactness sweep.
* ``pipeline`` — end-to-end parse → synth → check with crash-safe
  stage checkpoints in a state directory.
* ``litmus`` — print suite tests in the litmus text format.
* ``run``    — execute a litmus test on the RTL simulator.
* ``stats``  — print design-size statistics (paper section 5.1).
* ``serve``  — persistent verification daemon: warm workers, crash-safe
  job ledger, persistent verdict store (see docs/service.md).
* ``submit`` / ``status`` / ``result`` — clients of a running daemon.
* ``cache``  — inspect/verify/gc the daemon's persistent store.

Every command follows one jobs convention (``-j/--jobs``): ``1`` is
serial, ``N>1`` uses N worker processes, and ``0`` (or any value
``<=0``) means all cores — verdicts and reports are identical for any
job count.

Exit codes: ``0`` success, ``1`` verification failures (or undecided
budget-exhausted verdicts), ``2`` usage/data errors
(:class:`repro.errors.ReproError`), ``130``/``143`` interrupted by
SIGINT/SIGTERM after checkpointing (the printed ``resume with:`` line
says how to continue).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from . import __version__

JOBS_HELP = ("worker processes (1 = serial, N>1 = N workers, 0 = all "
             "cores); verdicts are identical for any job count")


def _convert_sigterm() -> dict:
    """Route SIGTERM through the KeyboardInterrupt checkpoint path
    (clean pool shutdown, store commit) and remember which signal
    fired so the exit code distinguishes 130 from 143."""
    import signal

    state = {"signum": None}

    def handler(signum, _frame):
        state["signum"] = signum
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, handler)
    return state


def _interrupt_exit_code(state: dict) -> int:
    import signal
    return 143 if state.get("signum") == signal.SIGTERM else 130


def _print_interrupt(exc, resume_hint: str) -> None:
    print(f"\ninterrupted — {exc}", file=sys.stderr)
    if exc.resumable:
        print(f"resume with: {resume_hint}", file=sys.stderr)
    else:
        print("(run again with --cache <path> to make interrupted runs "
              "resumable)", file=sys.stderr)


def _rerun_hint(args: argparse.Namespace) -> str:
    """The command line that resumes an interrupted run: the same one."""
    import shlex
    return "rtl2uspec " + shlex.join(args.argv)


def _open_cache(path: str, codec):
    """The ``--cache`` store (None without a path).  The file is also
    the checkpoint: re-running an interrupted command replays every
    decision it had made."""
    if not path:
        return None
    from .formal import VerdictStore
    store = VerdictStore(path, codec=codec)
    if store.quarantined:
        print(f"warning: {store.quarantined_records} unreadable "
              f"record(s) quarantined to {store.quarantined}; they will "
              f"be re-executed", file=sys.stderr)
    return store


def _load_model(path: str):
    from .uspec import parse_model

    if path:
        with open(path, "r", encoding="utf-8") as handle:
            model = parse_model(handle.read())
        return model
    from .designs.models import load_reference_model
    return load_reference_model()


def _check_budget(timeout: float):
    from .resilience import Budget
    return Budget(timeout_seconds=timeout) if timeout else None


def _fault_plan(spec: str):
    from .resilience import parse_fault_spec
    return parse_fault_spec(spec) if spec else None


#: --cores value -> formal design configuration
_FORMAL_CONFIGS = (2, 4, 8, 16)


def _formal_config(cores: int):
    from .designs import (
        FORMAL_CONFIG,
        FORMAL_CONFIG_4CORE,
        FORMAL_CONFIG_8CORE,
        FORMAL_CONFIG_16CORE,
    )
    return {2: FORMAL_CONFIG, 4: FORMAL_CONFIG_4CORE,
            8: FORMAL_CONFIG_8CORE, 16: FORMAL_CONFIG_16CORE}[cores]


def _cmd_synth(args: argparse.Namespace) -> int:
    from . import synthesize_uspec
    from .errors import InterruptedRun
    from .formal import PropertyChecker
    from .formal.cache import SVA_CODEC
    from .uspec import format_model

    checker = PropertyChecker(bound=args.bound, max_k=args.max_k)
    signal_state = _convert_sigterm()
    verdicts = _open_cache(args.cache, SVA_CODEC)
    candidates = args.candidates.split(",") if args.candidates else None
    try:
        result = synthesize_uspec(buggy=args.buggy, checker=checker,
                                  candidate_filter=candidates, jobs=args.jobs,
                                  verdicts=verdicts,
                                  check_timeout=args.timeout or None,
                                  formal_config=_formal_config(args.cores),
                                  compose=args.compose)
    except KeyboardInterrupt:
        kept = (f"{len(verdicts)} verdict(s) kept in {args.cache}"
                if verdicts is not None else "no verdict cache")
        _print_interrupt(InterruptedRun(kept, resumable=bool(args.cache)),
                         _rerun_hint(args))
        return _interrupt_exit_code(signal_state)
    finally:
        if verdicts is not None:
            verdicts.close()
    from .core import full_report
    print(full_report(result))
    engine_stats = checker.stats
    print(f"engine: {int(engine_stats['checks'])} check(s), bitblast "
          f"{int(engine_stats['blast_hits'])} hit(s) / "
          f"{int(engine_stats['blast_misses'])} miss(es)")
    if args.profile_sat:
        import json
        profile = {key: int(engine_stats.get(key, 0))
                   for key in ("sat_solves", "sat_propagations",
                               "sat_conflicts", "sat_decisions",
                               "sat_reductions", "arena_bytes")}
        profile["sat_seconds"] = round(engine_stats.get("sat_time", 0.0), 3)
        print(f"sat profile: {json.dumps(profile, sort_keys=True)}")
    # The digest is the A/B parity anchor: --compose and --monolithic
    # runs of the same design must print the same value.
    print(f"verdict digest: {result.verdict_digest()}")
    text = format_model(result.model)
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"\nuspec model written to {args.output}")
    if verdicts is not None:
        print(f"verdict cache: {verdicts.hits} hits, {verdicts.misses} "
              f"misses ({len(verdicts)} verdicts in {args.cache})")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .check import (SUITE_CODEC, format_suite_report, run_suite,
                        suite_report_json)
    from .errors import InterruptedRun
    from .litmus import load_suite, resolve_tests

    model = _load_model(args.model)
    tests = resolve_tests(args.tests) if args.tests else load_suite()
    signal_state = _convert_sigterm()
    store = _open_cache(args.cache, SUITE_CODEC)
    try:
        run = run_suite(model, tests, jobs=args.jobs,
                        keep_graphs=args.show_graph,
                        budget=_check_budget(args.timeout),
                        store=store,
                        fault_plan=_fault_plan(args.inject_faults))
    except InterruptedRun as exc:
        if exc.partial:
            print(format_suite_report(exc.partial))
        _print_interrupt(exc, _rerun_hint(args))
        return _interrupt_exit_code(signal_state)
    finally:
        if store is not None:
            store.close()
    verdicts = run.verdicts
    if run.resumed:
        print(f"resumed: {run.resumed} verdict(s) replayed from "
              f"{args.cache}")
    print(format_suite_report(verdicts))
    if run.pool_stats.faults_observed():
        print(run.pool_stats.summary())
    if args.profile_sat:
        import json
        from .check import suite_sat_profile
        print(f"sat profile: "
              f"{json.dumps(suite_sat_profile(verdicts), sort_keys=True)}")
    if args.report_json:
        import json
        report = suite_report_json(verdicts, model=args.model or "reference",
                                   jobs=args.jobs,
                                   quarantined_records=_quarantined(store),
                                   profile_sat=args.profile_sat)
        with open(args.report_json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report written to {args.report_json}")
    if args.show_graph:
        from .check import render_ascii
        for verdict in verdicts:
            if verdict.graph is not None:
                print(f"\n== witness µhb graph: {verdict.name} ==")
                print(render_ascii(verdict.graph))
            elif not verdict.decided:
                print(f"\n== {verdict.name}: undecided ({verdict.status}, "
                      f"budget exhausted); no graph ==")
            elif verdict.observable:
                # Only a verdict replayed from the store lacks its
                # witness: the store holds verdicts, not graphs.
                print(f"\n== {verdict.name}: outcome observable (verdict "
                      f"replayed from --cache; re-run without --cache to "
                      f"draw the graph) ==")
            else:
                print(f"\n== {verdict.name}: outcome unobservable "
                      f"(no acyclic µhb graph exists) ==")
    return 0 if all(v.passed for v in verdicts) else 1


def _cmd_litmus(args: argparse.Namespace) -> int:
    from .litmus import load_suite, write_suite

    if args.export:
        paths = write_suite(args.export)
        print(f"wrote {len(paths)} .test files to {args.export}")
        return 0
    for test in load_suite():
        if args.names:
            print(test.name)
        else:
            print(test.format())
            print()
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from .designs import DesignConfig
    from .litmus import suite_by_name
    from .rtlcheck import ExhaustiveSkewTester

    test = suite_by_name()[args.test]
    tester = ExhaustiveSkewTester(
        DesignConfig(buggy=args.buggy), max_skew=args.max_skew)
    result = tester.run_test(test)
    print(f"{test.name}: {result.runs} runs, outcome "
          f"{'OBSERVED' if result.outcome_observed else 'not observed'} "
          f"({result.time_seconds:.1f}s)")
    print(f"verdict: {'PASS' if result.passed else 'FAIL'}")
    return 0 if result.passed else 1


def _quarantined(store) -> int:
    """Records the ``--cache`` replay dropped (0 without a store)."""
    return store.quarantined_records if store is not None else 0


def _sweep_report_json(report, args, quarantined_records: int) -> None:
    import json

    payload = {
        "schema": "repro-check-sweep/5",
        "jobs": args.jobs,
        "digest": report.digest(),
        "programs": report.programs,
        "outcomes_checked": report.outcomes_checked,
        "resumed": report.resumed,
        "quarantined_records": quarantined_records,
        "exact": report.exact,
        "unsound": [formatted for formatted, _ in report.unsound],
        "overstrict": [formatted for formatted, _ in report.overstrict],
        "undecided": [formatted for formatted, _ in report.undecided],
    }
    with open(args.report_json, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"report written to {args.report_json}")


def _run_generated_sweep(model, args, store):
    """Sweep a generated corpus: stream programs from the template
    enumerator and feed :func:`run_sweep` in chunks, so memory stays
    flat at 10k+ programs.

    Every chunk runs on the one ``store``, and fault-plan sites count
    tasks across chunks.  Reports merge in enumeration order, so the
    final digest is identical to a single-shot sweep and to any
    ``--jobs`` count.  Raises :class:`InterruptedRun` carrying the
    merged partial report.
    """
    import itertools

    from .check import ExactnessReport
    from .check.exhaustive import merge_program_results, normalize_limit
    from .check.runner import run_sweep
    from .errors import InterruptedRun
    from .litmus.generator import iter_programs, parse_spec

    spec = parse_spec(args.generate)
    limit = normalize_limit(args.limit)
    chunk_size = max(1, args.chunk)
    stream = (program for _, program in iter_programs(spec))
    if limit is not None:
        stream = itertools.islice(stream, limit)
    plan = _fault_plan(args.inject_faults)
    submitted = 0
    total = ExactnessReport()
    while True:
        chunk = list(itertools.islice(stream, chunk_size))
        if not chunk:
            return total
        interrupted = None
        try:
            report = run_sweep(
                model, programs=chunk, jobs=args.jobs,
                budget=_check_budget(args.timeout), store=store,
                fault_plan=plan.shifted(submitted) if plan else None)
        except InterruptedRun as exc:
            report, interrupted = exc.partial, exc
        submitted += report.programs - report.resumed
        total.programs += report.programs
        total.resumed += report.resumed
        merge_program_results(
            total, [(report.outcomes_checked, report.unsound,
                     report.overstrict, report.undecided)])
        if interrupted is not None:
            interrupted.partial = total
            raise interrupted


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .check import SWEEP_CODEC, verify_exactness
    from .errors import InterruptedRun

    model = _load_model(args.model)
    signal_state = _convert_sigterm()
    store = _open_cache(args.cache, SWEEP_CODEC)
    try:
        if args.generate:
            report = _run_generated_sweep(model, args, store)
        else:
            report = verify_exactness(
                model, max_threads=args.threads, max_len=args.length,
                limit=args.limit, jobs=args.jobs,
                budget=_check_budget(args.timeout), store=store,
                fault_plan=_fault_plan(args.inject_faults))
    except InterruptedRun as exc:
        print(exc.partial.summary())
        _print_interrupt(exc, _rerun_hint(args))
        return _interrupt_exit_code(signal_state)
    finally:
        if store is not None:
            store.close()
    print(report.summary())
    if args.report_json:
        _sweep_report_json(report, args, _quarantined(store))
    for kind, entries in (("UNSOUND", report.unsound),
                          ("OVERSTRICT", report.overstrict),
                          ("UNDECIDED", report.undecided)):
        for formatted, _condition in entries[:args.show]:
            print(f"--- {kind} ---")
            print(formatted)
    return 0 if report.exact else 1


def _format_program_line(name: str, program) -> str:
    """One-line rendering of a generated program for streaming output."""
    threads = []
    for thread in program:
        parts = []
        for access in thread:
            if access.kind == "W":
                parts.append(f"st {access.addr} {access.value}")
            elif access.kind == "F":
                parts.append("fence")
            else:
                parts.append(f"ld {access.reg} {access.addr}")
        threads.append("; ".join(parts))
    return f"{name}  " + " || ".join(threads)


def _cmd_generate(args: argparse.Namespace) -> int:
    import hashlib
    import itertools
    import os

    from .litmus.generator import iter_programs, iter_tests, parse_spec

    spec = parse_spec(args.spec)
    count = args.count if args.count > 0 else None
    acc = hashlib.sha256()
    emitted = 0
    if args.export:
        os.makedirs(args.export, exist_ok=True)
    if args.tests or args.export:
        stream = iter_tests(spec)
        if count is not None:
            stream = itertools.islice(stream, count)
        for test in stream:
            emitted += 1
            fingerprint = test.name[len("gen-"):]
            acc.update(fingerprint.encode("utf-8"))
            acc.update(b"\n")
            if args.export:
                path = os.path.join(args.export, f"{test.name}.test")
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(test.format() + "\n")
            elif args.names:
                print(test.name)
            else:
                print(test.format())
                print()
        what = "test(s)"
    else:
        stream = iter_programs(spec)
        if count is not None:
            stream = itertools.islice(stream, count)
        for fingerprint, program in stream:
            emitted += 1
            acc.update(fingerprint.encode("utf-8"))
            acc.update(b"\n")
            name = f"gen-{fingerprint}"
            if args.names:
                print(name)
            else:
                print(_format_program_line(name, program))
        what = "program(s)"
    digest = acc.hexdigest()
    print(f"generated {emitted} {what} ({spec.describe()}), "
          f"corpus digest {digest}", file=sys.stderr)
    if count is not None and emitted < count:
        print(f"error: corpus exhausted at {emitted}/{count} {what} — "
              f"widen the spec (more threads/len/addrs/values or "
              f"fences=enum)", file=sys.stderr)
        return 2
    return 0


def _cmd_bugmatrix(args: argparse.Namespace) -> int:
    from .bugmatrix import format_matrix, matrix_json, run_bugmatrix

    designs = [name for name in args.designs.split(",") if name] \
        if args.designs else None
    matrix = run_bugmatrix(designs=designs, bound=args.bound,
                           max_k=args.max_k, max_skew=args.max_skew)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(matrix_json(matrix))
        print(f"matrix written to {args.out}")
    if args.json:
        print(matrix_json(matrix), end="")
    else:
        print(format_matrix(matrix))
    return 0 if matrix["ok"] else 1


def _cmd_pipeline(args: argparse.Namespace) -> int:
    from .check import format_suite_report
    from .errors import InterruptedRun
    from .pipeline import PipelineConfig, run_pipeline

    signal_state = _convert_sigterm()
    config = PipelineConfig(
        state_dir=args.state_dir, design=args.design, resume=args.resume,
        jobs=args.jobs,
        check_timeout=args.timeout or None,
        synth_timeout=args.synth_timeout or None,
        bound=args.bound if args.bound > 0 else None,
        max_k=args.max_k if args.max_k >= 0 else None,
        candidates=args.candidates.split(",") if args.candidates else None,
        echo=print,
    )
    resume_hint = (f"rtl2uspec pipeline --state-dir {args.state_dir} "
                   f"--design {args.design} --resume")
    try:
        result = run_pipeline(config)
    except InterruptedRun as exc:
        _print_interrupt(exc, resume_hint)
        return _interrupt_exit_code(signal_state)
    print(format_suite_report(result.verdicts, show_stats=False))
    print(f"pipeline complete: model {result.model_path}, "
          f"report {result.report_path} (digest {result.digest[:12]})")
    if result.stages_resumed:
        print(f"stages served from checkpoints: "
              f"{', '.join(result.stages_resumed)}")
    return 0 if result.passed else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    from .designs import SIM_CONFIG, load_design, load_single_core

    single = load_single_core().stats()
    multi = load_design(SIM_CONFIG).stats()
    print(f"{'':<16}{'1 core':>12}{'4 cores':>12}")
    for key in ("wires", "cells", "registers", "memories", "dff_bits",
                "memory_bits"):
        print(f"{key:<16}{single[key]:>12}{multi[key]:>12}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .resilience import BackoffSchedule
    from .service import Daemon, ServeConfig, parse_chaos_spec

    chaos = parse_chaos_spec(args.inject_chaos) if args.inject_chaos \
        else None
    backoff = BackoffSchedule(jitter=args.respawn_jitter,
                              seed=chaos.seed if chaos else 0) \
        if args.respawn_jitter > 0 else BackoffSchedule()
    config = ServeConfig(
        state_dir=args.state_dir,
        socket_path=args.socket or None,
        workers=args.workers,
        max_queue=args.max_queue,
        max_attempts=args.max_attempts,
        hang_timeout=args.hang_timeout,
        job_deadline=args.job_deadline or None,
        recycle_after=args.recycle_after,
        backoff=backoff,
        store_root=args.store_root or None,
        chaos=chaos,
    )
    return Daemon(config).run()


def _service_client(args: argparse.Namespace):
    from .service import ServiceClient, default_socket_path

    return ServiceClient(args.socket or default_socket_path(args.state_dir))


def _print_job_result(response: dict) -> int:
    import json

    print(json.dumps(response, indent=2, sort_keys=True))
    state = response.get("state")
    if state == "done":
        return 0
    return 1 if state == "unknown" else 2


def _cmd_submit(args: argparse.Namespace) -> int:
    client = _service_client(args)
    params = {}
    if args.kind in ("parse", "synth", "bench"):
        params["design"] = args.design
    if args.kind == "bench":
        params["workload"] = args.workload
        if args.repeat > 0:
            params["repeat"] = args.repeat
    if args.kind == "synth":
        if args.bound > 0:
            params["bound"] = args.bound
        if args.max_k >= 0:
            params["max_k"] = args.max_k
    if args.kind in ("check", "sweep") and args.model:
        with open(args.model, "r", encoding="utf-8") as handle:
            params["model_text"] = handle.read()
    if args.kind in ("check", "bench") and args.tests:
        params["tests"] = args.tests.split(",")
    if args.kind == "sweep":
        params["threads"] = args.threads
        params["length"] = args.length
        if args.limit > 0:
            params["limit"] = args.limit
        if args.generate:
            params["generate"] = args.generate
    if args.kind in ("check", "sweep") and args.shards > 0:
        params["shards"] = args.shards
    if args.kind == "generate":
        if args.spec:
            params["spec"] = args.spec
        if args.count > 0:
            params["count"] = args.count
    if args.kind in ("synth", "check", "sweep", "bench") and \
            args.timeout > 0:
        params["timeout"] = args.timeout
    job = client.submit(args.kind, params)
    print(f"submitted {job} ({args.kind})")
    if not args.wait:
        return 0
    return _print_job_result(client.wait(job, timeout=args.wait_timeout,
                                         down_grace=args.down_grace))


def _cmd_status(args: argparse.Namespace) -> int:
    import json

    client = _service_client(args)
    status = client.status(args.job or None)
    print(json.dumps(status, indent=2, sort_keys=True))
    return 0


def _cmd_result(args: argparse.Namespace) -> int:
    client = _service_client(args)
    if args.wait:
        return _print_job_result(client.wait(args.job,
                                             timeout=args.wait_timeout,
                                             down_grace=args.down_grace))
    response = client.result(args.job)
    if response.get("pending"):
        print(f"{args.job}: still {response['state']} "
              f"(re-run with --wait to block)")
        return 3
    return _print_job_result(response)


def _cmd_cache(args: argparse.Namespace) -> int:
    import json
    import os

    from .service import ArtifactStore

    root = args.store or os.path.join(args.state_dir, "store")
    with ArtifactStore(root) as store:
        if args.action == "stats":
            print(json.dumps(store.stats(), indent=2, sort_keys=True))
            return 0
        if args.action == "verify":
            outcome = store.verify()
            print(f"verified {outcome['checked']} entr(ies): "
                  f"{outcome['ok']} ok, {outcome['quarantined']} "
                  f"quarantined")
            for path in store.quarantined:
                print(f"  quarantined: {path}", file=sys.stderr)
            return 0 if not outcome["quarantined"] else 1
        # gc
        max_bytes = args.max_bytes
        if max_bytes is None:
            print("error: gc needs --max-bytes", file=sys.stderr)
            return 2
        outcome = store.gc(max_bytes)
        print(f"evicted {outcome['evicted']} entr(ies) "
              f"({outcome['freed_bytes']} bytes freed, "
              f"{outcome['swept_tmp']} stale temp file(s) swept); "
              f"{outcome['remaining_bytes']} bytes remain")
        return 0


def _add_service_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--state-dir", default="serve-state",
                        help="daemon state directory (ledger, store, "
                             "artifacts, socket)")
    parser.add_argument("--socket", default="",
                        help="socket path override (default: "
                             "<state-dir>/serve.sock)")


def _add_resilience_flags(parser: argparse.ArgumentParser,
                          what: str) -> None:
    """The shared --cache/--timeout/--inject-faults flags."""
    parser.add_argument("--cache", default="",
                        help="verdict store file (JSONL): decided work "
                             "is replayed, not re-checked, and an "
                             "interrupted run resumes by re-running the "
                             "same command")
    parser.add_argument("--timeout", type=float, default=0.0,
                        help=f"per-{what} wall-clock budget in seconds "
                             f"(0 = unlimited; exhaustion yields a "
                             f"conservative TIMEOUT verdict, never a PASS)")
    parser.add_argument("--inject-faults", default="",
                        help="deterministic fault injection for resilience "
                             "testing, e.g. 'crash:0,hang:3' "
                             "(kinds: crash/hang/garbage/interrupt; "
                             "verdicts are unaffected)")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="rtl2uspec",
        description="rtl2uspec reproduction: synthesize uspec models from "
                    "RTL and verify memory-model implementations")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="synthesize a uspec model")
    p_synth.add_argument("-o", "--output", default="multi_vscale.uarch")
    p_synth.add_argument("--buggy", action="store_true",
                         help="use the section-6.1 buggy design variant")
    p_synth.add_argument("--bound", type=int, default=12)
    p_synth.add_argument("--max-k", type=int, default=2)
    p_synth.add_argument("--candidates", default="",
                         help="comma-separated state elements to restrict analysis")
    p_synth.add_argument("--cores", type=int, choices=_FORMAL_CONFIGS,
                         default=2,
                         help="formal design core count (the simulation/"
                              "DFG side always uses the 4-core config)")
    synth_mode = p_synth.add_mutually_exclusive_group()
    synth_mode.add_argument("--compose", action="store_true",
                            help="hierarchical compositional synthesis: "
                                 "per-module obligation graphs with "
                                 "assume-guarantee interfaces and module-"
                                 "granularity caching (verdict digest and "
                                 ".uarch output match --monolithic)")
    synth_mode.add_argument("--monolithic", action="store_true",
                            help="flatten-then-prove discharge over the "
                                 "whole design (the default)")
    p_synth.add_argument("--cache", default="",
                         help="verdict store file (JSONL): decided SVAs "
                              "are replayed, not re-checked, and an "
                              "interrupted run resumes by re-running the "
                              "same command")
    p_synth.add_argument("--timeout", type=float, default=0.0,
                         help="per-SVA wall-clock budget in seconds "
                              "(0 = unlimited; exhaustion yields a "
                              "conservative UNKNOWN verdict)")
    p_synth.add_argument("-j", "--jobs", type=int, default=0,
                         help=JOBS_HELP)
    p_synth.add_argument("--profile-sat", action="store_true",
                         help="print per-phase SAT counters "
                              "(propagations, conflicts, reductions, "
                              "arena bytes) after synthesis")
    p_synth.set_defaults(func=_cmd_synth)

    p_check = sub.add_parser("check", help="verify litmus tests against a model")
    p_check.add_argument("--model", default="",
                         help=".uarch file (default: shipped reference model)")
    p_check.add_argument("tests", nargs="*", help="test names (default: all 56)")
    p_check.add_argument("--show-graph", action="store_true",
                         help="render witness µhb graphs (text Fig. 1b)")
    p_check.add_argument("-j", "--jobs", type=int, default=1,
                         help=JOBS_HELP)
    p_check.add_argument("--profile-sat", action="store_true",
                         help="aggregate per-test SAT counters into the "
                              "report (stdout + --report-json)")
    p_check.add_argument("--report-json", default="",
                         help="write verdicts + solver stats as JSON")
    _add_resilience_flags(p_check, "test")
    p_check.set_defaults(func=_cmd_check)

    p_litmus = sub.add_parser("litmus", help="print the litmus suite")
    p_litmus.add_argument("--names", action="store_true")
    p_litmus.add_argument("--export", default="",
                          help="write the suite as .test files to a directory")
    p_litmus.set_defaults(func=_cmd_litmus)

    p_run = sub.add_parser("run", help="run a litmus test on the RTL simulator")
    p_run.add_argument("test")
    p_run.add_argument("--max-skew", type=int, default=2)
    p_run.add_argument("--buggy", action="store_true")
    p_run.set_defaults(func=_cmd_run)

    p_gen = sub.add_parser(
        "generate",
        help="stream a template-generated litmus corpus (TriCheck-style "
             "enumerator; deduped, deterministically named gen-<fp>)")
    p_gen.add_argument("spec", nargs="?", default="threads=2,len=2",
                       help="corpus spec, e.g. "
                            "'threads=2,len=3,addrs=2,values=2,"
                            "fences=enum,kind=safe' (all keys optional)")
    p_gen.add_argument("--count", type=int, default=0,
                       help="stop after N items (0 = stream the whole "
                            "corpus); delivering fewer than N exits 2")
    p_gen.add_argument("--tests", action="store_true",
                       help="emit full litmus tests (program + final "
                            "condition) instead of programs")
    p_gen.add_argument("--names", action="store_true",
                       help="print deterministic gen-<fingerprint> names "
                            "only")
    p_gen.add_argument("--export", default="",
                       help="write tests as .test files to a directory "
                            "(implies --tests)")
    p_gen.set_defaults(func=_cmd_generate)

    p_bug = sub.add_parser(
        "bugmatrix",
        help="seeded-bug detection matrix: every RTL bug variant must be "
             "caught at synthesis (refuted SVA) or check time (forbidden "
             "litmus outcome observed); the clean design by neither")
    p_bug.add_argument("--designs", default="",
                       help="comma-separated variant subset (default: "
                            "clean,decoder,mcm,arbiter,drop,bypass)")
    p_bug.add_argument("--out", default="",
                       help="write the JSON detection matrix to this path")
    p_bug.add_argument("--json", action="store_true",
                       help="print the JSON matrix instead of the table")
    p_bug.add_argument("--bound", type=int, default=10,
                       help="BMC bound for the synthesis-stage SVA slice")
    p_bug.add_argument("--max-k", type=int, default=2,
                       help="induction depth for the synthesis-stage slice")
    p_bug.add_argument("--max-skew", type=int, default=1,
                       help="per-core start-skew bound for the check stage")
    p_bug.set_defaults(func=_cmd_bugmatrix)

    p_sweep = sub.add_parser(
        "sweep", help="exhaustive small-program exactness sweep (PipeProof-style)")
    p_sweep.add_argument("--model", default="")
    p_sweep.add_argument("--threads", type=int, default=2)
    p_sweep.add_argument("--length", type=int, default=2)
    p_sweep.add_argument("--limit", type=int, default=0,
                         help="bound the number of programs (0 = all)")
    p_sweep.add_argument("--generate", default="",
                         help="sweep a generated corpus instead of the "
                              "built-in shape enumeration: a corpus spec "
                              "like 'threads=2,len=3,fences=enum' "
                              "(--threads/--length are ignored; --limit "
                              "caps the corpus prefix)")
    p_sweep.add_argument("--chunk", type=int, default=500,
                         help="programs per run_sweep chunk with "
                              "--generate (memory stays flat; the digest "
                              "is chunk-size invariant)")
    p_sweep.add_argument("--show", type=int, default=3,
                         help="mismatching tests to print")
    p_sweep.add_argument("-j", "--jobs", type=int, default=1,
                         help=JOBS_HELP)
    p_sweep.add_argument("--report-json", default="",
                         help="write the sweep report as JSON")
    _add_resilience_flags(p_sweep, "condition")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_pipe = sub.add_parser(
        "pipeline",
        help="end-to-end parse -> synth -> check with crash-safe stage "
             "checkpoints (kill it anywhere; --resume continues)")
    p_pipe.add_argument("--state-dir", default="pipeline-state",
                        help="directory for stage checkpoints, verdict "
                             "stores, and final artifacts")
    p_pipe.add_argument("--design", choices=("multi", "unicore"),
                        default="multi",
                        help="bundled design: the 4-core multi-V-scale "
                             "case study or the fast scoped unicore")
    p_pipe.add_argument("--resume", action="store_true",
                        help="continue from the state directory's last "
                             "checkpoint (stages and stored verdicts are "
                             "not re-executed; final artifacts are "
                             "byte-identical to an uninterrupted run)")
    p_pipe.add_argument("-j", "--jobs", type=int, default=1,
                        help=JOBS_HELP)
    p_pipe.add_argument("--timeout", type=float, default=0.0,
                        help="per-litmus-test wall-clock budget in seconds "
                             "(0 = unlimited)")
    p_pipe.add_argument("--synth-timeout", type=float, default=0.0,
                        help="per-SVA wall-clock budget in seconds "
                             "(0 = unlimited)")
    p_pipe.add_argument("--bound", type=int, default=0,
                        help="BMC bound for synthesis (0 = design preset)")
    p_pipe.add_argument("--max-k", type=int, default=-1,
                        help="induction depth for synthesis "
                             "(-1 = design preset)")
    p_pipe.add_argument("--candidates", default="",
                        help="comma-separated state elements to restrict "
                             "analysis (default: design preset)")
    p_pipe.set_defaults(func=_cmd_pipeline)

    p_stats = sub.add_parser("stats", help="design statistics (section 5.1)")
    p_stats.set_defaults(func=_cmd_stats)

    p_serve = sub.add_parser(
        "serve",
        help="persistent verification daemon: warm workers, a crash-safe "
             "job ledger, and a persistent verdict store "
             "(kill -9 safe; clients use submit/status/result)")
    _add_service_flags(p_serve)
    p_serve.add_argument("--workers", type=int, default=1,
                         help="warm worker processes")
    p_serve.add_argument("--max-queue", type=int, default=64,
                         help="queued-job admission limit; past it, "
                              "submissions are refused with 'queue-full' "
                              "(backpressure, never unbounded buffering)")
    p_serve.add_argument("--max-attempts", type=int, default=3,
                         help="dispatch attempts per job before a "
                              "crash-looping job is recorded failed")
    p_serve.add_argument("--hang-timeout", type=float, default=60.0,
                         help="seconds without a worker heartbeat before "
                              "it is declared hung and recycled")
    p_serve.add_argument("--job-deadline", type=float, default=0.0,
                         help="per-job wall-clock ceiling in seconds; "
                              "expiry degrades the job to a first-class "
                              "UNKNOWN (0 = unlimited)")
    p_serve.add_argument("--recycle-after", type=int, default=0,
                         help="retire each worker after N jobs to bound "
                              "leak accumulation (0 = never)")
    p_serve.add_argument("--store-root", default="",
                         help="artifact store root override; two daemons "
                              "with separate state dirs may safely share "
                              "one store this way (default: "
                              "<state-dir>/store)")
    p_serve.add_argument("--respawn-jitter", type=float, default=0.0,
                         help="opt-in deterministic seeded jitter "
                              "fraction on worker respawn backoff "
                              "(0 = byte-identical classic schedule)")
    p_serve.add_argument("--inject-chaos", default="",
                         help="seeded replayable service fault plan, "
                              "e.g. 'seed=7,kill%%=20,daemon-kill:3,"
                              "store-budget=4096' (see docs/service.md)")
    p_serve.set_defaults(func=_cmd_serve)

    p_submit = sub.add_parser(
        "submit", help="submit a job to a running serve daemon")
    p_submit.add_argument("kind",
                          choices=("parse", "synth", "check", "sweep",
                                   "generate", "bench"))
    _add_service_flags(p_submit)
    p_submit.add_argument("--design", choices=("multi", "unicore"),
                          default="multi", help="design for parse/synth")
    p_submit.add_argument("--model", default="",
                          help=".uarch file for check/sweep (default: "
                               "shipped reference model)")
    p_submit.add_argument("--tests", default="",
                          help="comma-separated litmus test names for "
                               "check (default: all 56)")
    p_submit.add_argument("--bound", type=int, default=0,
                          help="synth BMC bound (0 = design preset)")
    p_submit.add_argument("--max-k", type=int, default=-1,
                          help="synth induction depth (-1 = preset)")
    p_submit.add_argument("--threads", type=int, default=2,
                          help="sweep thread count")
    p_submit.add_argument("--length", type=int, default=2,
                          help="sweep max program length")
    p_submit.add_argument("--limit", type=int, default=0,
                          help="sweep program limit (0 = all)")
    p_submit.add_argument("--shards", type=int, default=0,
                          help="check/sweep: split the job into N "
                               "deterministic stripes dispatched across "
                               "idle workers; the merged report is "
                               "byte-identical to a single-worker run "
                               "(0 = unsharded)")
    p_submit.add_argument("--generate", default="",
                          help="sweep: sweep a generated corpus spec "
                               "instead of the built-in shape "
                               "enumeration (needs --limit)")
    p_submit.add_argument("--workload", choices=("check", "synth"),
                          default="check",
                          help="bench: workload to time on the warm "
                               "fleet")
    p_submit.add_argument("--repeat", type=int, default=0,
                          help="bench: repetitions (repeat >= 2 shows "
                               "warm-cache effects; 0 = kind default)")
    p_submit.add_argument("--spec", default="",
                          help="generate: corpus spec "
                               "(e.g. 'threads=2,len=3,fences=enum')")
    p_submit.add_argument("--count", type=int, default=0,
                          help="generate: corpus item cap (0 = kind "
                               "default)")
    p_submit.add_argument("--timeout", type=float, default=0.0,
                          help="per-obligation solver budget in seconds")
    p_submit.add_argument("--wait", action="store_true",
                          help="block until the job finishes and print "
                               "its result")
    p_submit.add_argument("--wait-timeout", type=float, default=600.0,
                          help="seconds to wait with --wait")
    p_submit.add_argument("--down-grace", type=float, default=60.0,
                          help="with --wait: seconds to tolerate an "
                               "unreachable daemon (rides through "
                               "restarts)")
    p_submit.set_defaults(func=_cmd_submit)

    p_status = sub.add_parser(
        "status", help="daemon/queue/fleet/store status (or one job's)")
    _add_service_flags(p_status)
    p_status.add_argument("--job", default="", help="job id to inspect")
    p_status.set_defaults(func=_cmd_status)

    p_result = sub.add_parser(
        "result", help="fetch a submitted job's terminal result")
    p_result.add_argument("job", help="job id")
    _add_service_flags(p_result)
    p_result.add_argument("--wait", action="store_true",
                          help="block until the job reaches a terminal "
                               "state (tolerates daemon restarts)")
    p_result.add_argument("--wait-timeout", type=float, default=600.0,
                          help="seconds to wait with --wait")
    p_result.add_argument("--down-grace", type=float, default=60.0,
                          help="with --wait: seconds to tolerate an "
                               "unreachable daemon (rides through "
                               "restarts)")
    p_result.set_defaults(func=_cmd_result)

    p_cache = sub.add_parser(
        "cache", help="inspect/verify/gc the persistent artifact store")
    p_cache.add_argument("action", choices=("stats", "verify", "gc"))
    _add_service_flags(p_cache)
    p_cache.add_argument("--store", default="",
                         help="store root override (default: "
                              "<state-dir>/store)")
    p_cache.add_argument("--max-bytes", type=int, default=None,
                         help="gc: evict least-recently-used entries "
                              "until the store fits this many bytes")
    p_cache.set_defaults(func=_cmd_cache)

    args = parser.parse_args(argv)
    args.argv = sys.argv[1:] if argv is None else list(argv)
    from .errors import ReproError
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream closed the pipe (e.g. `repro generate | head`):
        # conventional silent exit.  Detach stdout so the interpreter's
        # shutdown flush doesn't raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141  # 128 + SIGPIPE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
