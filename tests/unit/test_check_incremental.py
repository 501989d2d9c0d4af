"""ProgramSolver (the sweep's assumption-flip decider) must be
verdict-identical to the fresh per-condition path — the property the
sweep's decision path rests on."""

import pytest

from repro.check import ProgramSolver, solve_observability
from repro.check.exhaustive import _program_conditions, enumerate_programs
from repro.litmus import LitmusTest, suite_by_name
from repro.mcm.events import R, W

from .test_check import sc_hand_model


@pytest.fixture(scope="module")
def hand_model():
    return sc_hand_model()


def fresh_verdict(model, program, condition):
    return solve_observability(
        model, LitmusTest("t", program, condition)).observable


class TestSuiteEquivalence:
    NAMES = ("mp", "sb", "lb", "corr", "corw", "cowr", "2+2w",
             "iriw", "rwc", "wrc", "r", "s", "ssl", "mp+stale")

    def test_suite_verdicts_match_fresh(self, hand_model):
        by_name = suite_by_name()
        for name in self.NAMES:
            test = by_name[name]
            fresh = solve_observability(hand_model, test)
            instance = ProgramSolver(hand_model, test)
            inc = instance.decide(test.final)
            assert inc.observable == fresh.observable, name
            # One SAT call, plus one more per cycle cut.
            assert inc.iterations == 1 + inc.stats.cycle_cuts, name
            assert fresh.iterations == 1 + fresh.stats.cycle_cuts, name

    def test_many_conditions_one_program(self, hand_model):
        # Every load-value combination of mp, decided on one solver.
        test = suite_by_name()["mp"]
        instance = ProgramSolver(hand_model, test)
        for r1 in (0, 1):
            for r2 in (0, 1):
                condition = (((1, "r1"), r1), ((1, "r2"), r2))
                expected = fresh_verdict(hand_model, test.program, condition)
                assert instance.decide(condition).observable == expected, \
                    (r1, r2)
        assert instance.decides == 4
        assert instance.fresh_fallbacks == 0


class TestSweepEquivalence:
    def test_sweep_prefix_condition_by_condition(self, hand_model):
        programs = []
        seen = set()
        for program in enumerate_programs():
            key = tuple(sorted(tuple((a.kind, a.addr) for a in t)
                               for t in program))
            if key in seen:
                continue
            seen.add(key)
            programs.append(program)
            if len(programs) >= 25:
                break
        for program in programs:
            instance = ProgramSolver(
                hand_model, LitmusTest("sweep", program, ()))
            for condition in _program_conditions(program, True):
                expected = fresh_verdict(hand_model, program, condition)
                got = instance.decide(condition).observable
                assert got == expected, (program, condition)
            assert instance.fresh_fallbacks == 0


class TestEdgeCases:
    def test_pure_write_program_final_memory(self, hand_model):
        program = ((W("x", 1),), (W("x", 2),))
        instance = ProgramSolver(hand_model, LitmusTest("w", program, ()))
        for value in (0, 1, 2):
            condition = (((-1, "x"), value),)
            expected = fresh_verdict(hand_model, program, condition)
            assert instance.decide(condition).observable == expected, value

    def test_untouched_address_semantics(self, hand_model):
        program = ((W("x", 1), R("x", "r1")),)
        instance = ProgramSolver(hand_model, LitmusTest("t", program, ()))
        # Address the program never touches: 0 is the initial value
        # (vacuous), anything else is impossible.
        assert instance.decide(
            (((0, "r1"), 1), ((-1, "z"), 0))).observable is True
        assert instance.decide(
            (((0, "r1"), 1), ((-1, "z"), 1))).observable is False
        # The fresh path agrees on the vacuous form.
        assert fresh_verdict(hand_model, program,
                             (((0, "r1"), 1), ((-1, "z"), 0)))

    def test_unknown_register_is_ignored_like_fresh(self, hand_model):
        program = ((W("x", 1), R("x", "r1")),)
        condition = (((0, "r1"), 1), ((7, "r9"), 1))
        instance = ProgramSolver(hand_model, LitmusTest("t", program, ()))
        expected = fresh_verdict(hand_model, program, condition)
        assert instance.decide(condition).observable == expected
        assert expected is True  # the (7, r9) entry binds nothing

    def test_duplicate_entries_last_wins(self, hand_model):
        program = ((W("x", 1), R("x", "r1")),)
        condition = (((0, "r1"), 0), ((0, "r1"), 1))
        instance = ProgramSolver(hand_model, LitmusTest("t", program, ()))
        expected = fresh_verdict(hand_model, program, condition)
        assert instance.decide(condition).observable == expected

    def test_out_of_domain_value_falls_back_to_fresh(self, hand_model):
        program = ((W("x", 1), R("x", "r1")),)
        instance = ProgramSolver(hand_model, LitmusTest("t", program, ()))
        condition = (((0, "r1"), 5),)
        expected = fresh_verdict(hand_model, program, condition)
        result = instance.decide(condition)
        assert result.observable == expected
        assert expected is False
        assert instance.fresh_fallbacks == 1

    def test_condition_accepts_a_generator(self, hand_model):
        program = ((W("x", 1), R("x", "r1")),)
        instance = ProgramSolver(hand_model, LitmusTest("t", program, ()))
        condition = [((0, "r1"), 1)]
        assert instance.decide(iter(condition)).observable is True

    def test_stats_populated(self, hand_model):
        test = suite_by_name()["mp"]
        instance = ProgramSolver(hand_model, test)
        result = instance.decide(test.final)
        assert result.stats.vars > 0
        assert result.stats.clauses > 0
        assert result.iterations == 1 + result.stats.cycle_cuts
        assert instance.stats.cycle_cuts == result.stats.cycle_cuts


class TestDecideBatch:
    """decide_batch must be verdict-identical to per-condition decide
    (the batching only skips re-propagating shared assumption
    prefixes), including the fallback and decided-by-construction
    plans."""

    def test_matches_decide_per_condition(self, hand_model):
        test = suite_by_name()["mp"]
        conditions = [(((1, "r1"), a), ((1, "r2"), b))
                      for a in (0, 1) for b in (0, 1)]
        batched = ProgramSolver(hand_model, test)
        sequential = ProgramSolver(hand_model, test)
        got = batched.decide_batch(conditions)
        want = [sequential.decide(c) for c in conditions]
        assert [r.observable for r in got] == [r.observable for r in want]
        assert all(r.decided for r in got)
        assert batched.decides == sequential.decides == 4

    def test_mixed_plans_in_one_batch(self, hand_model):
        program = ((W("x", 1), R("x", "r1")),)
        instance = ProgramSolver(hand_model, LitmusTest("t", program, ()))
        conditions = [
            (((0, "r1"), 1),),                     # solve -> observable
            (((0, "r1"), 5),),                     # out of domain -> fallback
            (((0, "r1"), 1), ((-1, "z"), 1)),      # untouched addr -> unsat
            (((0, "r1"), 0),),                     # solve -> observable
        ]
        results = instance.decide_batch(conditions)
        expected = [fresh_verdict(hand_model, program, c)
                    for c in conditions]
        assert [r.observable for r in results] == expected
        assert instance.fresh_fallbacks == 1

    def test_sweep_parity_against_sequential(self, hand_model):
        from repro.check.exhaustive import _program_conditions
        programs = []
        seen = set()
        for program in enumerate_programs():
            key = tuple(sorted(tuple((a.kind, a.addr) for a in t)
                               for t in program))
            if key in seen:
                continue
            seen.add(key)
            programs.append(program)
            if len(programs) == 10:
                break
        for program in programs:
            conditions = _program_conditions(program, True)
            if not conditions:
                continue
            test = LitmusTest("t", program, conditions[0])
            batched = ProgramSolver(hand_model, test)
            sequential = ProgramSolver(hand_model, test)
            got = [r.observable for r in batched.decide_batch(conditions)]
            want = [sequential.decide(c).observable for c in conditions]
            assert got == want, program
