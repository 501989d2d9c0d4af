"""Unit and property tests for the CDCL SAT solver."""

import io
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SatError
from repro.sat import (
    SAT,
    UNKNOWN,
    UNSAT,
    ArenaSolver,
    Cnf,
    luby,
    read_dimacs,
    solve_cnf,
    write_dimacs,
)


def brute_force_sat(clauses, num_vars):
    for bits in range(1 << num_vars):
        if all(any((lit > 0) == bool(bits >> (abs(lit) - 1) & 1) for lit in cl)
               for cl in clauses):
            return True
    return False


# ---------------------------------------------------------------------------
# Basic behaviour
# ---------------------------------------------------------------------------
class TestBasics:
    def test_empty_problem_is_sat(self):
        assert ArenaSolver().solve() == SAT

    def test_unit_propagation(self):
        s = ArenaSolver()
        s.add_clause([1])
        s.add_clause([-1, 2])
        s.add_clause([-2, 3])
        assert s.solve() == SAT
        assert s.model_value(1) and s.model_value(2) and s.model_value(3)

    def test_trivial_unsat(self):
        s = ArenaSolver()
        s.add_clause([1])
        s.add_clause([-1])
        assert s.solve() == UNSAT

    def test_tautology_ignored(self):
        s = ArenaSolver()
        s.add_clause([1, -1])
        assert s.solve() == SAT

    def test_duplicate_literals_collapse(self):
        s = ArenaSolver()
        s.add_clause([2, 2, 2])
        assert s.solve() == SAT
        assert s.model_value(2)

    def test_zero_literal_rejected(self):
        with pytest.raises(SatError):
            ArenaSolver().add_clause([0])

    def test_unsat_persists(self):
        s = ArenaSolver()
        s.add_clause([1])
        s.add_clause([-1])
        assert s.solve() == UNSAT
        assert s.solve() == UNSAT

    def test_model_satisfies_all_clauses(self):
        clauses = [[1, 2, 3], [-1, -2], [-2, -3], [-1, -3], [2, 3]]
        s = ArenaSolver()
        for cl in clauses:
            s.add_clause(list(cl))
        assert s.solve() == SAT
        for cl in clauses:
            assert any(s.model_value(lit) for lit in cl)


class TestAssumptions:
    def test_assumption_forces_value(self):
        s = ArenaSolver()
        s.add_clause([1, 2])
        assert s.solve(assumptions=[-1]) == SAT
        assert s.model_value(2)

    def test_conflicting_assumptions(self):
        s = ArenaSolver()
        s.add_clause([-1, 2])
        assert s.solve(assumptions=[1, -2]) == UNSAT
        # The solver is reusable afterwards.
        assert s.solve(assumptions=[1]) == SAT
        assert s.model_value(2)

    def test_assumptions_do_not_persist(self):
        s = ArenaSolver()
        s.add_clause([1, 2])
        assert s.solve(assumptions=[-1, -2]) == UNSAT
        assert s.solve() == SAT

    def test_incremental_clause_addition(self):
        s = ArenaSolver()
        s.add_clause([1, 2])
        assert s.solve() == SAT
        s.add_clause([-1])
        assert s.solve() == SAT
        assert s.model_value(2)
        s.add_clause([-2])
        assert s.solve() == UNSAT


class TestBudget:
    def test_conflict_budget_returns_unknown(self):
        # PHP(7) is hard enough to exceed a 5-conflict budget.
        cnf = Cnf()
        n = 7
        v = {}
        for p in range(n + 1):
            for h in range(n):
                v[(p, h)] = cnf.new_var()
        for p in range(n + 1):
            cnf.add_clause([v[(p, h)] for h in range(n)])
        for h in range(n):
            for p1 in range(n + 1):
                for p2 in range(p1 + 1, n + 1):
                    cnf.add_clause([-v[(p1, h)], -v[(p2, h)]])
        status, _ = solve_cnf(cnf, max_conflicts=5)
        assert status == UNKNOWN


class TestLuby:
    def test_prefix(self):
        assert [luby(i) for i in range(1, 16)] == \
            [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]

    def test_values_are_powers_of_two(self):
        for i in range(1, 200):
            value = luby(i)
            assert value & (value - 1) == 0


class TestPigeonhole:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_php_unsat(self, n):
        cnf = Cnf()
        v = {}
        for p in range(n + 1):
            for h in range(n):
                v[(p, h)] = cnf.new_var()
        for p in range(n + 1):
            cnf.add_clause([v[(p, h)] for h in range(n)])
        for h in range(n):
            for p1 in range(n + 1):
                for p2 in range(p1 + 1, n + 1):
                    cnf.add_clause([-v[(p1, h)], -v[(p2, h)]])
        status, _ = solve_cnf(cnf)
        assert status == UNSAT


# ---------------------------------------------------------------------------
# Property tests against brute force
# ---------------------------------------------------------------------------
@st.composite
def random_cnf(draw, max_vars=8, max_clauses=24):
    num_vars = draw(st.integers(2, max_vars))
    num_clauses = draw(st.integers(1, max_clauses))
    clauses = []
    for _ in range(num_clauses):
        width = draw(st.integers(1, min(3, num_vars)))
        variables = draw(st.lists(st.integers(1, num_vars), min_size=width,
                                  max_size=width, unique=True))
        signs = draw(st.lists(st.booleans(), min_size=width, max_size=width))
        clauses.append([v if s else -v for v, s in zip(variables, signs)])
    return num_vars, clauses


class TestAgainstBruteForce:
    @settings(max_examples=150, deadline=None)
    @given(random_cnf())
    def test_matches_brute_force(self, problem):
        num_vars, clauses = problem
        s = ArenaSolver()
        for cl in clauses:
            s.add_clause(list(cl))
        expected = brute_force_sat(clauses, num_vars)
        status = s.solve()
        assert (status == SAT) == expected
        if status == SAT:
            for cl in clauses:
                assert any(s.model_value(lit) for lit in cl)

    @settings(max_examples=60, deadline=None)
    @given(random_cnf(max_vars=6, max_clauses=15),
           st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True),
           st.lists(st.booleans(), min_size=3, max_size=3))
    def test_assumptions_match_brute_force(self, problem, assume_vars, signs):
        num_vars, clauses = problem
        assume_vars = [v for v in assume_vars if v <= num_vars]
        assumptions = [v if s else -v
                       for v, s in zip(assume_vars, signs)]
        s = ArenaSolver()
        for cl in clauses:
            s.add_clause(list(cl))
        expected = brute_force_sat(clauses + [[a] for a in assumptions], num_vars)
        status = s.solve(assumptions=assumptions)
        assert (status == SAT) == expected


# ---------------------------------------------------------------------------
# DIMACS round-trip
# ---------------------------------------------------------------------------
class TestDimacs:
    def test_roundtrip(self):
        cnf = Cnf()
        a, b, c = cnf.new_vars(3)
        cnf.add_clause([a, -b])
        cnf.add_clause([b, c])
        cnf.add_clause([-a, -c])
        buf = io.StringIO()
        write_dimacs(cnf, buf, comment="test problem")
        parsed = read_dimacs(io.StringIO(buf.getvalue()))
        assert parsed.num_vars == cnf.num_vars
        assert parsed.clauses == cnf.clauses

    def test_missing_header_rejected(self):
        with pytest.raises(SatError):
            read_dimacs(io.StringIO("1 2 0\n"))

    def test_comments_skipped(self):
        text = "c hello\np cnf 2 1\n1 -2 0\n"
        cnf = read_dimacs(io.StringIO(text))
        assert cnf.clauses == [[1, -2]]
