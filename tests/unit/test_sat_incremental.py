"""Assumption-based incremental solving in the pure-Python CDCL solver.

The Check layer's incremental engine relies on the solver keeping its
clause database (including learned clauses) across ``solve`` calls and
on assumptions behaving as temporary unit decisions: these tests pin
that contract.
"""

from repro.sat import SAT, UNSAT, ArenaSolver, Cnf


def test_assumption_flips_on_one_solver():
    # x1 <-> x2 ; assumptions pick the phase per call.
    solver = ArenaSolver()
    solver.add_clause([-1, 2])
    solver.add_clause([1, -2])
    assert solver.solve(assumptions=[1]) == SAT
    assert solver.model_value(2) is True
    assert solver.solve(assumptions=[-1]) == SAT
    assert solver.model_value(2) is False
    assert solver.solve(assumptions=[1, -2]) == UNSAT
    # The solver recovers: the conflict was assumption-local.
    assert solver.solve(assumptions=[1, 2]) == SAT


def test_conflicting_assumptions_reported():
    solver = ArenaSolver()
    solver.add_clause([-1, 2])   # 1 -> 2
    solver.add_clause([-2, 3])   # 2 -> 3
    assert solver.solve(assumptions=[1, -3]) == UNSAT
    core = set(solver.conflict_assumptions)
    # The final conflict clause mentions only assumption literals.
    assert core
    assert core <= {-1, 3, 1, -3}


def test_clauses_added_between_solves_are_respected():
    solver = ArenaSolver()
    solver.add_clause([1, 2])
    assert solver.solve(assumptions=[-1]) == SAT
    assert solver.model_value(2) is True
    solver.add_clause([-2])  # strengthen the problem incrementally
    assert solver.solve(assumptions=[-1]) == UNSAT
    assert solver.solve(assumptions=[1]) == SAT


def test_unsat_under_assumptions_is_not_global_unsat():
    cnf = Cnf()
    a, b, c = cnf.new_var(), cnf.new_var(), cnf.new_var()
    cnf.add_clause([a, b])
    cnf.add_clause([-a, c])
    solver = ArenaSolver()
    solver.add_cnf(cnf)
    assert solver.solve(assumptions=[-b, -c]) == UNSAT
    assert solver.solve() == SAT
    # Many more queries on the same instance stay consistent.
    for phase in (1, -1, 1, -1):
        assert solver.solve(assumptions=[phase * a]) in (SAT, UNSAT)
        if phase > 0:
            assert solver.model_value(c) is True


def test_complete_selector_style_assumptions():
    # The incremental engine's usage pattern: a block of selector vars,
    # exactly one true per group, flipped across many solves.
    cnf = Cnf()
    sels = [cnf.new_var() for _ in range(4)]
    payload = cnf.new_var()
    # sel0 forces payload, sel1 forbids it.
    cnf.add_clause([-sels[0], payload])
    cnf.add_clause([-sels[1], -payload])
    solver = ArenaSolver()
    solver.add_cnf(cnf)
    for chosen in (0, 1, 2, 3, 1, 0):
        assumptions = [s if i == chosen else -s for i, s in enumerate(sels)]
        assert solver.solve(assumptions=assumptions) == SAT
        if chosen == 0:
            assert solver.model_value(payload) is True
        if chosen == 1:
            assert solver.model_value(payload) is False
    # Contradictory selector pair is UNSAT, then recoverable.
    assert solver.solve(assumptions=[sels[0], sels[1], -sels[2], -sels[3]]) \
        == UNSAT
    assert solver.solve(assumptions=[sels[0], -sels[1], -sels[2], -sels[3]]) \
        == SAT
